// Determinism contract of the parallel batch-inference engine: results are
// positioned by input index and bit-identical for any worker count, and
// `threads` bounds the analyses in flight.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/telemetry.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/live_database.h"
#include "src/testbed/experiment.h"

namespace csi {
namespace {

using infer::DesignType;
using testbed::MakeAssetForDesign;
using testbed::RunStreamingSession;

std::vector<testbed::SessionResult> MakeSessions(const media::Manifest& manifest,
                                                 DesignType design, int count,
                                                 TimeUs duration) {
  std::vector<testbed::SessionResult> sessions;
  for (int i = 0; i < count; ++i) {
    testbed::SessionConfig config;
    config.design = design;
    config.manifest = &manifest;
    Rng rng(1000 + static_cast<uint64_t>(i));
    config.downlink = (i % 2 == 0)
                          ? nettrace::StableTrace("s", (4 + i % 4) * kMbps)
                          : nettrace::CellularTrace("c", 5 * kMbps, 0.4, duration,
                                                    2 * kUsPerSec, rng);
    config.duration = duration;
    config.seed = 100 + static_cast<uint64_t>(i);
    sessions.push_back(RunStreamingSession(config));
  }
  return sessions;
}

std::vector<capture::PacketColumns> TracesOf(const std::vector<testbed::SessionResult>& s) {
  std::vector<capture::PacketColumns> traces;
  for (const auto& session : s) {
    traces.push_back(capture::PacketColumns::Build(session.capture));
  }
  return traces;
}

TEST(BatchAnalyzer, EightTracesIdenticalAcrossOneAndEightThreads) {
  const TimeUs duration = 90 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 1, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kSH, 8, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  infer::BatchConfig serial;
  serial.threads = 1;
  infer::BatchConfig wide;
  wide.threads = 8;
  infer::BatchAnalyzer one(&manifest, config, serial);
  infer::BatchAnalyzer eight(&manifest, config, wide);

  const auto results_1 = one.AnalyzeAll(traces);
  const auto results_8 = eight.AnalyzeAll(traces);
  ASSERT_EQ(results_1.size(), 8u);
  ASSERT_EQ(results_8.size(), 8u);
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(results_1[i], results_8[i]) << "trace " << i;
  }
}

TEST(BatchAnalyzer, MatchesSingleTraceEngineByIndex) {
  const TimeUs duration = 90 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 2, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kCH, 4, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  const infer::InferenceEngine reference(
      infer::DbSnapshot(std::make_shared<const infer::ChunkDatabase>(&manifest)), config);
  infer::BatchConfig batch;
  batch.threads = 4;
  infer::BatchAnalyzer analyzer(&manifest, config, batch);
  const auto results = analyzer.AnalyzeAll(traces);
  ASSERT_EQ(results.size(), traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(results[i], reference.Analyze(traces[i])) << "trace " << i;
  }
}

// Fault isolation: one trace whose analysis throws must not take the batch
// down or perturb any sibling result.
TEST(BatchAnalyzer, ThrowingTraceDoesNotPoisonSiblings) {
  const TimeUs duration = 90 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 3, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kCH, 5, duration));
  const size_t poison = 2;

  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  const infer::InferenceEngine reference(
      infer::DbSnapshot(std::make_shared<const infer::ChunkDatabase>(&manifest)), config);

  infer::BatchConfig batch;
  batch.threads = 4;
  batch.analyze_override = [&](const capture::PacketColumns& trace) {
    if (&trace == &traces[poison]) {
      throw std::runtime_error("injected analyze failure");
    }
    return reference.Analyze(trace);
  };
  infer::BatchAnalyzer analyzer(&manifest, config, batch);

  auto* failures = telemetry::MetricsRegistry::Global().GetCounter(
      "csi_batch_trace_analyze_failures_total");
  const uint64_t failures_before = failures->Value();

  std::vector<double> seconds;
  std::vector<std::string> errors;
  const auto results = analyzer.AnalyzeAll(traces, &seconds, &errors);

  ASSERT_EQ(results.size(), traces.size());
  ASSERT_EQ(errors.size(), traces.size());
  ASSERT_EQ(seconds.size(), traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i == poison) {
      EXPECT_EQ(results[i], infer::InferenceResult{}) << "failed slot must stay default";
      EXPECT_EQ(errors[i], "injected analyze failure");
    } else {
      EXPECT_EQ(results[i], reference.Analyze(traces[i])) << "trace " << i;
      EXPECT_TRUE(errors[i].empty()) << "trace " << i << ": " << errors[i];
    }
  }
  EXPECT_EQ(failures->Value(), failures_before + 1);
}

TEST(BatchAnalyzer, NonStdExceptionIsReportedAsUnknown) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 1, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kCH, 2, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kCH;
  infer::BatchConfig batch;
  batch.threads = 2;
  batch.analyze_override = [&](const capture::PacketColumns& trace) -> infer::InferenceResult {
    if (&trace == &traces[0]) {
      throw 42;  // not derived from std::exception
    }
    return {};
  };
  infer::BatchAnalyzer analyzer(&manifest, config, batch);
  std::vector<std::string> errors;
  const auto results = analyzer.AnalyzeAll(traces, nullptr, &errors);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], "unknown error");
  EXPECT_TRUE(errors[1].empty());
}

// Analyzing through a LiveChunkDatabase snapshot must be bit-identical to the
// manifest constructor's own full build, and UpdateSnapshot must keep the
// engine working across live publishes.
TEST(BatchAnalyzer, SnapshotConstructorMatchesManifestConstructor) {
  const TimeUs duration = 60 * kUsPerSec;
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 1, duration);
  const auto traces = TracesOf(MakeSessions(manifest, DesignType::kSH, 3, duration));

  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  infer::BatchConfig batch;
  batch.threads = 4;

  infer::BatchAnalyzer from_manifest(&manifest, config, batch);
  const auto expected = from_manifest.AnalyzeAll(traces);

  infer::LiveChunkDatabase live(manifest);
  infer::BatchAnalyzer from_snapshot(live.Acquire(), config, batch);
  EXPECT_EQ(from_snapshot.AnalyzeAll(traces), expected);

  // Re-acquiring the same published state is a no-op rebind.
  from_snapshot.UpdateSnapshot(live.Acquire());
  EXPECT_EQ(from_snapshot.AnalyzeAll(traces), expected);

  // A live refresh appending decoy chunks far outside every estimate window
  // must not perturb the inference of the already-captured traces.
  infer::ManifestRefresh refresh;
  refresh.video_appends.resize(static_cast<size_t>(manifest.num_video_tracks()));
  for (auto& track_appends : refresh.video_appends) {
    track_appends.push_back(media::Chunk{500'000'000, 2'000'000});
  }
  live.ApplyRefresh(refresh);
  from_snapshot.UpdateSnapshot(live.Acquire());
  EXPECT_EQ(from_snapshot.AnalyzeAll(traces), expected);
}

TEST(BatchAnalyzer, EmptyBatchYieldsEmptyResults) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kSH, 0, 60 * kUsPerSec);
  infer::InferenceConfig config;
  config.design = DesignType::kSH;
  infer::BatchAnalyzer analyzer(&manifest, config);
  EXPECT_TRUE(analyzer.AnalyzeAll(std::vector<capture::PacketColumns>{}).empty());
}

// `threads` is the number of analyses in flight at once, counting the calling
// thread that drives the fan-out: threads = 1 must run one analysis at a time.
TEST(BatchAnalyzer, ThreadsBoundsConcurrentAnalyses) {
  const media::Manifest manifest = MakeAssetForDesign(DesignType::kCH, 1, 30 * kUsPerSec);
  const std::vector<capture::PacketColumns> traces(8);
  for (const int threads : {1, 2}) {
    std::atomic<int> in_flight{0};
    std::atomic<int> max_in_flight{0};
    infer::InferenceConfig config;
    config.design = DesignType::kCH;
    infer::BatchConfig batch;
    batch.threads = threads;
    batch.analyze_override = [&](const capture::PacketColumns&) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      // Long enough for any extra worker to pick up a sibling trace.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      in_flight.fetch_sub(1);
      return infer::InferenceResult{};
    };
    infer::BatchAnalyzer analyzer(&manifest, config, batch);
    EXPECT_EQ(analyzer.threads(), threads);
    EXPECT_EQ(analyzer.AnalyzeAll(traces).size(), traces.size());
    EXPECT_LE(max_in_flight.load(), threads) << "threads = " << threads;
  }
}

}  // namespace
}  // namespace csi
