#include "src/common/build_info.h"

#include "src/common/cache_env.h"
#include "src/common/simd.h"

namespace csi {

telemetry::Labels BuildInfoLabels() {
  return {
      {"candidate_cache_default", CsiCacheEnvDisables("candidate") ? "off" : "on"},
      // Mirrors capture::kPacketLayoutVersion (packet_columns.h); duplicated
      // here so csi_common does not depend on csi_capture. packet_columns_test
      // checks that the two agree.
      {"packet_layout", "soa-v2"},
      {"prefix_cache_default", CsiCacheEnvDisables("prefix") ? "off" : "on"},
      {"result_cache_default", CsiCacheEnvDisables("result") ? "off" : "on"},
      {"simd_backend", simd::BackendName(simd::ActiveBackend())},
  };
}

void RecordBuildInfoMetric() {
  telemetry::MetricsRegistry::Global()
      .GetGauge("csi_build_info", BuildInfoLabels())
      ->Set(1.0);
}

}  // namespace csi
