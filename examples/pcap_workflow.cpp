// Offline pcap workflow: the shape of a real CSI deployment.
//
// A tester captures encrypted traffic with tcpdump during a streaming test
// and analyzes the pcap offline. This example produces such a pcap from a
// simulated session, then runs the analysis side exactly as a standalone
// tool would: load pcap -> load manifest (the §4.1 metadata) -> infer ->
// report QoE. It also reports the feasibility statistics CSI would check
// before a measurement campaign (is this encoding fingerprintable?).
//
// Run: ./build/examples/pcap_workflow [output.pcap]

#include <cstdio>
#include <string>

#include "src/capture/pcap_io.h"
#include "src/common/table.h"
#include "src/csi/inference.h"
#include "src/csi/qoe.h"
#include "src/csi/uniqueness.h"
#include "src/testbed/experiment.h"

using namespace csi;

int main(int argc, char** argv) {
  const std::string pcap_path = argc > 1 ? argv[1] : "/tmp/csi_session.pcap";

  // ---- Capture side (in deployment: tcpdump on the gateway) ----
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(infer::DesignType::kSH, 4, 8 * 60 * kUsPerSec);
  Rng rng(7);
  testbed::SessionConfig session;
  session.design = infer::DesignType::kSH;
  session.manifest = &manifest;
  session.downlink =
      nettrace::CellularTrace("lte", 5 * kMbps, 0.5, 8 * 60 * kUsPerSec, 2 * kUsPerSec, rng);
  session.duration = 8 * 60 * kUsPerSec;
  session.seed = 7;
  const auto result = RunStreamingSession(session);
  capture::WritePcap(pcap_path, result.capture);
  const std::string manifest_text = manifest.Serialize();
  std::printf("captured %zu packets -> %s\n", result.capture.size(), pcap_path.c_str());
  std::printf("manifest: %zu bytes of metadata (collected once per test video, §4.1)\n\n",
              manifest_text.size());

  // ---- Analysis side (a standalone tool: only the pcap + the manifest) ----
  const media::Manifest loaded = media::Manifest::Parse(manifest_text);
  // The engine reads the capture as columns: transpose once after the read.
  const capture::PacketColumns columns =
      capture::PacketColumns::Build(capture::ReadPcap(pcap_path));

  // Pre-flight: is this encoding fingerprintable at the protocol's k?
  Rng feas_rng(1);
  std::printf("fingerprint feasibility of this encoding (k = 1%%):\n");
  std::printf("  unique single chunks: %.2f%%  (sizes alone cannot identify chunks)\n",
              100 * infer::UniqueSingleChunkFraction(loaded, 0.01));
  std::printf("  unique 3-chunk runs:  %.1f%%\n",
              100 * infer::UniqueSequenceFraction(loaded, 3, 0.01, 1500, feas_rng));
  std::printf("  unique 6-chunk runs:  %.1f%%\n\n",
              100 * infer::UniqueSequenceFraction(loaded, 6, 0.01, 1500, feas_rng));

  infer::InferenceConfig config;
  config.design = infer::DesignType::kSH;
  const infer::InferenceEngine engine(
      infer::DbSnapshot(std::make_shared<const infer::ChunkDatabase>(&loaded)), config);
  const auto inference = engine.Analyze(columns);
  std::printf("inference: %d candidate sequence(s)%s\n", static_cast<int>(inference.sequences.size()),
              inference.truncated ? " (truncated)" : "");
  if (inference.sequences.empty()) {
    return 1;
  }
  const infer::QoeReport qoe = infer::AnalyzeQoe(inference.sequences[0], loaded);
  TextTable report;
  report.SetHeader({"metric", "value"});
  report.AddRow({"avg delivered bitrate", FormatDouble(qoe.avg_bitrate / 1000.0, 0) + " kbps"});
  report.AddRow({"startup delay", FormatDouble(UsToSeconds(qoe.startup_delay), 2) + " s"});
  report.AddRow({"stalls", std::to_string(qoe.stall_count)});
  report.AddRow({"total stall time", FormatDouble(UsToSeconds(qoe.total_stall), 2) + " s"});
  report.AddRow({"track switches", std::to_string(qoe.track_switches)});
  report.AddRow({"data usage", FormatBytes(static_cast<double>(qoe.data_usage))});
  std::printf("%s\n", report.Render().c_str());

  // Cross-check against the instrumented player (not available in a real
  // deployment — that is the point of CSI).
  const auto accuracy = testbed::ScoreInference(inference, result.downloads);
  std::printf("accuracy vs ground truth: best %.1f%%\n", 100 * accuracy.best);
  return accuracy.best > 0.9 ? 0 : 1;
}
