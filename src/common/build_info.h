// Build/runtime provenance for metrics artifacts: which SIMD backend the
// process dispatched to, the packet layout, and which cache tiers the
// environment forces off. Exported as the
// conventional `csi_build_info` gauge (constant value 1, facts in labels) so
// every METRICS_*.json / .prom snapshot records how it was produced.

#ifndef CSI_SRC_COMMON_BUILD_INFO_H_
#define CSI_SRC_COMMON_BUILD_INFO_H_

#include "src/common/telemetry.h"

namespace csi {

// Label set describing this binary and process:
//   simd_backend          runtime-dispatched kernel ("scalar"/"sse2"/...)
//   packet_layout         capture::kPacketLayoutVersion
//   candidate_cache_default / prefix_cache_default / result_cache_default
//                         "off" iff CSI_CACHE in the environment forces that
//                         tier off (see cache_env.h), else "on"
telemetry::Labels BuildInfoLabels();

// Registers/updates `csi_build_info{...} 1` in the global registry. Called by
// the tools' metrics-snapshot path; idempotent.
void RecordBuildInfoMetric();

}  // namespace csi

#endif  // CSI_SRC_COMMON_BUILD_INFO_H_
