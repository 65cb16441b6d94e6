// Quickstart: the complete CSI workflow in one file.
//
// 1. Encode a VBR test asset (standing in for a commercial service's
//    encoding ladder) and build the chunk-size database from its manifest.
// 2. Stream it with an ABR player over an emulated cellular link while
//    capturing the encrypted traffic at the gateway.
// 3. Run the CSI inference on the capture and compare the recovered chunk
//    sequence against the player's ground-truth log.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "src/csi/inference.h"
#include "src/csi/qoe.h"
#include "src/testbed/experiment.h"

using namespace csi;

int main() {
  // --- 1. The test asset: 6 video tracks + a CBR audio track, VBR with
  // PASR 1.6, 5-second chunks, 10 minutes of content. ---
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(infer::DesignType::kSH, /*genre_seed=*/1,
                                  /*duration=*/10 * 60 * kUsPerSec);
  std::printf("asset: %d video tracks, %d audio tracks, %d chunks/track\n",
              manifest.num_video_tracks(), manifest.num_audio_tracks(),
              manifest.num_positions());

  // --- 2. Stream it over an emulated LTE link (design SH: separate audio
  // over HTTPS), capturing encrypted packets. ---
  Rng rng(42);
  testbed::SessionConfig session;
  session.design = infer::DesignType::kSH;
  session.manifest = &manifest;
  session.downlink = nettrace::CellularTrace("lte", 6 * kMbps, 0.4,
                                             10 * 60 * kUsPerSec, 2 * kUsPerSec, rng);
  session.adaptation = "hybrid";
  session.duration = 10 * 60 * kUsPerSec;
  session.seed = 42;
  const testbed::SessionResult result = testbed::RunStreamingSession(session);
  std::printf("session: %zu packets captured, %zu chunks downloaded, %.1f MB\n",
              result.capture.size(), result.downloads.size(),
              static_cast<double>(result.total_bytes) / 1e6);

  // --- 3. Infer the chunk sequence from the encrypted capture. ---
  infer::InferenceConfig config;
  config.design = infer::DesignType::kSH;
  const infer::InferenceEngine engine(
      infer::DbSnapshot(std::make_shared<const infer::ChunkDatabase>(&manifest)), config);
  const infer::InferenceResult inference =
      engine.Analyze(capture::PacketColumns::Build(result.capture));
  const testbed::AccuracyResult accuracy =
      testbed::ScoreInference(inference, result.downloads);
  std::printf("inference: %d candidate sequence(s); accuracy best=%.1f%% worst=%.1f%%\n",
              accuracy.num_sequences, 100.0 * accuracy.best, 100.0 * accuracy.worst);

  // --- 4. QoE metrics from the inferred sequence. ---
  if (!inference.sequences.empty()) {
    const infer::QoeReport qoe = infer::AnalyzeQoe(inference.sequences[0], manifest);
    std::printf("qoe: avg bitrate %.0f kbps, %d track switches, %d stalls, data %.1f MB\n",
                qoe.avg_bitrate / 1000.0, qoe.track_switches, qoe.stall_count,
                static_cast<double>(qoe.data_usage) / 1e6);
  }
  return accuracy.best > 0.9 ? 0 : 1;
}
