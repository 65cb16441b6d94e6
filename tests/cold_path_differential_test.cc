// End-to-end differential harness for the per-packet front end.
//
// Production runs the per-packet stages (classify, request detection, size
// estimation, traffic splitting) as forward sweeps over PacketColumns. The
// frozen array-of-structs oracle in tests/aos_oracle.h computes the same
// analysis prefix the naive way. This suite locks the two together and the
// end-to-end result to its golden digests:
//
//   1. Seeded sweep: testbed sessions across all four designs; the oracle's
//      prefix equals ComputeAnalysisPrefix over the columns, and Analyze
//      returns the same result on every backend of the database's SIMD
//      size-window scan. CSI_TEST_SCHEDULES raises the sweep for the nightly
//      deep-differential job.
//   2. Golden digests: the fixed instrumentation-invariance batch must hash
//      to the same per-design constants as always, under each forced backend
//      of the size-window scan.
//   3. Prefix-cache identity: a warm prefix-cache hit returns what a fresh
//      computation returns.
//   4. Batch identity: BatchAnalyzer::AnalyzeAll equals serial engine calls,
//      for serial and threaded pools (the threaded run doubles as TSan
//      coverage for concurrent read-only column access).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/capture/packet_columns.h"
#include "src/common/simd.h"
#include "src/csi/batch_analyzer.h"
#include "src/testbed/experiment.h"
#include "tests/aos_oracle.h"
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

InferenceConfig EngineConfig(DesignType design) {
  InferenceConfig config;
  config.design = design;
  return config;
}

void ExpectSamePrefix(const AnalysisPrefix& want, const AnalysisPrefix& got) {
  EXPECT_EQ(got.media_flows, want.media_flows);
  EXPECT_EQ(got.exchanges, want.exchanges);
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (size_t g = 0; g < want.groups.size(); ++g) {
    EXPECT_EQ(got.groups[g].start_time, want.groups[g].start_time) << "group " << g;
    EXPECT_EQ(got.groups[g].end_time, want.groups[g].end_time) << "group " << g;
    EXPECT_EQ(got.groups[g].estimated_total, want.groups[g].estimated_total) << "group " << g;
    ASSERT_EQ(got.groups[g].requests.size(), want.groups[g].requests.size()) << "group " << g;
    for (size_t r = 0; r < want.groups[g].requests.size(); ++r) {
      EXPECT_EQ(got.groups[g].requests[r].time, want.groups[g].requests[r].time);
      EXPECT_EQ(got.groups[g].requests[r].carries_sni, want.groups[g].requests[r].carries_sni);
    }
  }
}

TEST(ColdPathDifferential, SeededSweepMatchesAosOracleOnEveryBackend) {
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
    const SplitterConfig splitter;
    const AnalysisPrefix want =
        oracle::ComputeAnalysisPrefix(trace, design, manifest.host, splitter);
    ASSERT_GT(want.media_flows, 0) << "schedule " << s;

    {
      SCOPED_TRACE("schedule " + std::to_string(s));
      ExpectSamePrefix(want,
                       ComputeAnalysisPrefix(columns, design, manifest.host, splitter));
    }

    const InferenceEngine engine(
        DbSnapshot(std::make_shared<const ChunkDatabase>(&manifest)), EngineConfig(design));
    ASSERT_TRUE(simd::ForceBackend(simd::Backend::kScalar));
    const uint64_t want_result = DigestOne(engine.Analyze(columns));
    for (const simd::Backend backend : backends) {
      ASSERT_TRUE(simd::ForceBackend(backend));
      EXPECT_EQ(DigestOne(engine.Analyze(columns)), want_result)
          << "schedule " << s << " backend " << simd::BackendName(backend);
    }
  }
}

TEST(ColdPathDifferential, GoldenDigestsHoldOnEveryBackend) {
  BackendGuard guard;
  for (const DesignType design : kAllDesigns) {
    const uint64_t golden = testutil::GoldenBatchDigest(design);
    for (const simd::Backend backend : AllSupportedBackends()) {
      ASSERT_TRUE(simd::ForceBackend(backend));
      EXPECT_EQ(testutil::DigestResults(testutil::AnalyzeFixedBatch(design)), golden)
          << "design " << static_cast<int>(design) << " backend "
          << simd::BackendName(backend);
    }
  }
}

TEST(ColdPathDifferential, PrefixCacheHitMatchesFreshComputation) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kSQ, 0, duration);
  const capture::CaptureTrace trace = MakeSession(manifest, DesignType::kSQ, 3, duration);

  InferenceConfig config = EngineConfig(DesignType::kSQ);
  config.caches.prefix = std::make_shared<AnalysisPrefixCache>(8 * 1024 * 1024);
  const InferenceEngine engine(
      DbSnapshot(std::make_shared<const ChunkDatabase>(&manifest)), config);

  // Warm the cache through one column build, then hit it through a second,
  // independent build of the same capture: equal columns fingerprint alike,
  // so the second call must be a hit with identical output.
  const uint64_t want = DigestOne(engine.Analyze(capture::PacketColumns::Build(trace)));
  const auto before = config.caches.prefix->stats();
  EXPECT_EQ(DigestOne(engine.Analyze(capture::PacketColumns::Build(trace))), want);
  const auto after = config.caches.prefix->stats();
  // CSI_CACHE=prefix:off bypasses the tier: output must still match, but
  // there is no hit to count.
  if (!AnalysisPrefixCache::EnvForcesOff()) {
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
  }
}

TEST(ColdPathDifferential, BatchMatchesSerialEngine) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(DesignType::kCQ, 0, duration);
  std::vector<capture::PacketColumns> columns;
  for (uint64_t s = 0; s < 4; ++s) {
    columns.push_back(
        capture::PacketColumns::Build(MakeSession(manifest, DesignType::kCQ, 20 + s, duration)));
  }

  const InferenceConfig config = EngineConfig(DesignType::kCQ);
  std::vector<InferenceResult> serial;
  {
    const InferenceEngine engine(
        DbSnapshot(std::make_shared<const ChunkDatabase>(&manifest)), config);
    for (const capture::PacketColumns& c : columns) {
      serial.push_back(engine.Analyze(c));
    }
  }
  const uint64_t want = testutil::DigestResults(serial);
  // Threaded batch: workers share the read-only PacketColumns (TSan
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
