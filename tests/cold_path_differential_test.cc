// End-to-end differential harness for the columnar cold path.
//
// The tentpole claim of the SoA layout is byte-identity: for every design
// (CH/SH/CQ/SQ), every seeded capture and every SIMD backend, an engine
// running the columnar stages (use_columnar = true, the default) produces
// exactly the InferenceResult of the legacy AoS walk (use_columnar = false,
// kept as the differential reference). This suite locks that in at the
// engine and batch level:
//
//   1. Seeded sweep: testbed sessions across all four designs, AoS reference
//      vs columnar engine under forced scalar and under every supported
//      vector backend. CSI_TEST_SCHEDULES raises the sweep for the nightly
//      deep-differential job.
//   2. Golden digests: the fixed instrumentation-invariance batch must hash
//      to the same per-design constants as always — with the columnar path
//      off, on, and on under each forced backend.
//   3. Overload identity: Analyze(PacketColumns) == Analyze(trace) for the
//      same capture, including through a shared prefix cache (cached entries
//      are interchangeable between layouts by fingerprint construction).
//   4. Batch identity: BatchAnalyzer::AnalyzeAll over pre-built columns
//      equals the trace batch, for serial and threaded pools (the threaded
//      run doubles as TSan coverage for concurrent read-only column access).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/capture/packet_columns.h"
#include "src/common/simd.h"
#include "src/csi/batch_analyzer.h"
#include "src/testbed/experiment.h"
#include "tests/inference_digest.h"
#include "tests/test_env.h"

namespace csi::infer {
namespace {

constexpr DesignType kAllDesigns[] = {DesignType::kCH, DesignType::kSH,
                                      DesignType::kCQ, DesignType::kSQ};

// Restores the pre-test dispatch choice even when an assertion fails
// mid-test; ForceBackend is process-wide state.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::ActiveBackend()) {}
  ~BackendGuard() { simd::ForceBackend(saved_); }

 private:
  simd::Backend saved_;
};

std::vector<simd::Backend> AllSupportedBackends() {
  std::vector<simd::Backend> backends{simd::Backend::kScalar};
  for (simd::Backend b :
       {simd::Backend::kSse2, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::BackendSupported(b)) {
      backends.push_back(b);
    }
  }
  return backends;
}

uint64_t DigestOne(const InferenceResult& result) {
  return testutil::DigestResults({result});
}

capture::CaptureTrace MakeSession(const media::Manifest& manifest, DesignType design,
                                  uint64_t seed, TimeUs duration) {
  testbed::SessionConfig config;
  config.design = design;
  config.manifest = &manifest;
  Rng rng(7000 + seed);
  config.downlink = (seed % 2 == 0)
                        ? nettrace::StableTrace("s", (2 + seed % 4) * kMbps)
                        : nettrace::CellularTrace("c", 6 * kMbps, 0.5, duration,
                                                  2 * kUsPerSec, rng);
  config.duration = duration;
  config.seed = 100 + seed;
  return testbed::RunStreamingSession(config).capture;
}

InferenceConfig EngineConfig(DesignType design, bool use_columnar) {
  InferenceConfig config;
  config.design = design;
  config.use_columnar = use_columnar;
  return config;
}

TEST(ColdPathDifferential, SeededSweepMatchesAosReferenceOnEveryBackend) {
  BackendGuard guard;
  const std::vector<simd::Backend> backends = AllSupportedBackends();
  // One testbed session per schedule, round-robin over the designs. The
  // tier-1 default stays small; the nightly deep job raises it via
  // CSI_TEST_SCHEDULES.
  const uint64_t schedules = testutil::ScheduleCount(12);
  const TimeUs duration = 60 * kUsPerSec;
  for (uint64_t s = 0; s < schedules; ++s) {
    const DesignType design = kAllDesigns[s % 4];
    const media::Manifest manifest =
        testbed::MakeAssetForDesign(design, static_cast<int>(s % 3), duration);
    const capture::CaptureTrace trace = MakeSession(manifest, design, s, duration);
    const capture::PacketColumns columns = capture::PacketColumns::Build(trace);

    ASSERT_TRUE(simd::ForceBackend(simd::Backend::kScalar));
    const DbSnapshot snapshot(std::make_shared<const ChunkDatabase>(&manifest));
    const InferenceEngine reference(snapshot, EngineConfig(design, false));
    const uint64_t want = DigestOne(reference.Analyze(trace));

    const InferenceEngine columnar(snapshot, EngineConfig(design, true));
    for (const simd::Backend backend : backends) {
      ASSERT_TRUE(simd::ForceBackend(backend));
      EXPECT_EQ(DigestOne(columnar.Analyze(trace)), want)
          << "schedule " << s << " backend " << simd::BackendName(backend);
      EXPECT_EQ(DigestOne(columnar.Analyze(columns)), want)
          << "schedule " << s << " backend " << simd::BackendName(backend)
          << " (columns overload)";
    }
  }
}

TEST(ColdPathDifferential, GoldenDigestsHoldOnEveryLayoutAndBackend) {
  BackendGuard guard;
  for (const DesignType design : kAllDesigns) {
    const uint64_t golden = testutil::GoldenBatchDigest(design);
    // Legacy AoS reference path.
    {
      InferenceConfig config;
      config.use_columnar = false;
      EXPECT_EQ(testutil::DigestResults(testutil::AnalyzeFixedBatch(design, {}, config)),
                golden)
          << "AoS reference, design " << static_cast<int>(design);
    }
    // Columnar path under each forced backend.
    for (const simd::Backend backend : AllSupportedBackends()) {
      ASSERT_TRUE(simd::ForceBackend(backend));
      EXPECT_EQ(testutil::DigestResults(testutil::AnalyzeFixedBatch(design)), golden)
          << "columnar, design " << static_cast<int>(design) << " backend "
          << simd::BackendName(backend);
    }
  }
}

TEST(ColdPathDifferential, PrefixCacheEntriesInterchangeableBetweenLayouts) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kSQ, 0, duration);
  const capture::CaptureTrace trace = MakeSession(manifest, DesignType::kSQ, 3, duration);
  const capture::PacketColumns columns = capture::PacketColumns::Build(trace);

  InferenceConfig config = EngineConfig(DesignType::kSQ, true);
  config.caches.prefix = std::make_shared<AnalysisPrefixCache>(8 * 1024 * 1024);
  const InferenceEngine engine(
      DbSnapshot(std::make_shared<const ChunkDatabase>(&manifest)), config);

  // Warm the cache through the trace overload, then hit it through the
  // columns overload: FingerprintColumns replays the same field stream, so
  // the second call must be a hit with identical output.
  const uint64_t want = DigestOne(engine.Analyze(trace));
  const auto before = config.caches.prefix->stats();
  EXPECT_EQ(DigestOne(engine.Analyze(columns)), want);
  const auto after = config.caches.prefix->stats();
  // CSI_CACHE=prefix:off bypasses the tier: output must still match, but
  // there is no hit to count.
  if (!AnalysisPrefixCache::EnvForcesOff()) {
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
  }
}

TEST(ColdPathDifferential, BatchColumnsOverloadMatchesTraceBatch) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCQ, 0, duration);
  std::vector<capture::CaptureTrace> traces;
  std::vector<capture::PacketColumns> columns;
  for (uint64_t s = 0; s < 4; ++s) {
    traces.push_back(MakeSession(manifest, DesignType::kCQ, 20 + s, duration));
    columns.push_back(capture::PacketColumns::Build(traces.back()));
  }

  InferenceConfig config = EngineConfig(DesignType::kCQ, true);
  uint64_t want = 0;
  {
    BatchConfig batch;
    batch.threads = 1;
    BatchAnalyzer analyzer(&manifest, config, batch);
    want = testutil::DigestResults(analyzer.AnalyzeAll(traces));
  }
  // Threaded columns batch: workers share the read-only PacketColumns (TSan
  // coverage) and every out-param slot must land by index.
  for (const int threads : {1, 4}) {
    BatchConfig batch;
    batch.threads = threads;
    BatchAnalyzer analyzer(&manifest, config, batch);
    std::vector<double> seconds;
    std::vector<std::string> errors;
    std::vector<InferenceAudit> audits;
    const auto results = analyzer.AnalyzeAll(columns, &seconds, &errors, &audits);
    EXPECT_EQ(testutil::DigestResults(results), want) << "threads " << threads;
    ASSERT_EQ(seconds.size(), columns.size());
    ASSERT_EQ(errors.size(), columns.size());
    ASSERT_EQ(audits.size(), columns.size());
    for (const std::string& e : errors) {
      EXPECT_TRUE(e.empty());
    }
  }
}

}  // namespace
}  // namespace csi::infer
