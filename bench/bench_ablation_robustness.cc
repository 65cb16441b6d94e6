// Ablation study of CSI's robustness mechanisms (beyond the paper's
// evaluation; DESIGN.md §5 motivates each):
//
//   * wildcards       — unexplainable/oversized groups widen the index chain
//                       instead of breaking it;
//   * merge repair    — exchanges split by retransmitted QUIC requests can be
//                       re-joined by the chain search;
//   * phantom deficit — group explanations may use fewer objects than
//                       detected requests;
//   * calibrated rank — candidates ordered by deviation from the measured
//                       protocol-overhead model (vs. uncalibrated);
//   * SP2             — the simultaneous-request split points (vs. SP1 only).
//
// Each row disables one mechanism and reports Table-4-style accuracy on the
// design it protects.

#include <cstdio>

#include "src/common/table.h"
#include "src/testbed/experiment.h"

using namespace csi;

namespace {

struct Variant {
  const char* name;
  infer::DesignType design;
  void (*tweak)(infer::InferenceConfig*);
};

void NoTweak(infer::InferenceConfig*) {}
void NoWildcards(infer::InferenceConfig* c) { c->enable_wildcards = false; }
void NoMerge(infer::InferenceConfig* c) { c->enable_merge_repair = false; }
void NoDeficit(infer::InferenceConfig* c) { c->enable_phantom_deficit = false; }
void NoRanking(infer::InferenceConfig* c) { c->enable_calibrated_ranking = false; }
void NoSp2(infer::InferenceConfig* c) { c->splitter.enable_sp2 = false; }

}  // namespace

int main() {
  const TimeUs duration = 10 * 60 * kUsPerSec;
  Rng trace_rng(0xAB1A7E);
  const auto traces = nettrace::CellularTraceLibrary(4, duration, trace_rng);

  const Variant variants[] = {
      {"SQ baseline (all on)", infer::DesignType::kSQ, NoTweak},
      {"SQ - wildcards", infer::DesignType::kSQ, NoWildcards},
      {"SQ - phantom deficit", infer::DesignType::kSQ, NoDeficit},
      {"SQ - calibrated ranking", infer::DesignType::kSQ, NoRanking},
      {"SQ - SP2 split points", infer::DesignType::kSQ, NoSp2},
      {"CQ baseline (all on)", infer::DesignType::kCQ, NoTweak},
      {"CQ - merge repair", infer::DesignType::kCQ, NoMerge},
      {"CQ - calibrated ranking", infer::DesignType::kCQ, NoRanking},
  };

  std::printf("Ablation — contribution of each robustness mechanism\n\n");
  TextTable table;
  table.SetHeader({"variant", "runs", "best:100%", "best:>95%", "best:5pct", "worst:5pct"});

  for (const Variant& variant : variants) {
    std::vector<testbed::AccuracyResult> runs;
    uint64_t seed = 4242;
    for (int v = 0; v < 2; ++v) {
      const media::Manifest manifest = testbed::MakeAssetForDesign(variant.design, v, duration);
      for (const auto& trace : traces) {
        testbed::SessionConfig session;
        session.design = variant.design;
        session.manifest = &manifest;
        session.downlink = trace;
        session.duration = duration;
        session.seed = ++seed;
        const auto result = RunStreamingSession(session);
        infer::InferenceConfig config;
        config.design = variant.design;
        variant.tweak(&config);
        const infer::InferenceEngine engine(
            infer::DbSnapshot(std::make_shared<const infer::ChunkDatabase>(&manifest)), config);
        const auto inference = engine.Analyze(capture::PacketColumns::Build(result.capture));
        runs.push_back(testbed::ScoreInference(inference, result.downloads));
      }
    }
    const auto best = testbed::Aggregate(runs, /*best=*/true);
    const auto worst = testbed::Aggregate(runs, /*best=*/false);
    table.AddRow({variant.name, std::to_string(runs.size()),
                  FormatDouble(best.pct_100_match, 1), FormatDouble(best.pct_above_95, 1),
                  FormatDouble(best.pct5_accuracy, 1), FormatDouble(worst.pct5_accuracy, 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Disabling a mechanism should not raise accuracy; large drops show why the\n"
              "mechanism exists (DESIGN.md §5).\n");
  return 0;
}
