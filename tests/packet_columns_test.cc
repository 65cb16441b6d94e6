// Unit + property tests for the columnar capture layout.
//
// Four layers are locked in here:
//   1. Builder identity: PacketColumns::Build reproduces exactly the flow
//      order, per-flow packet order, SNI and downlink totals that the
//      array-of-structs oracle (tests/aos_oracle.h) computes — on hand-written
//      edge cases (empty trace, single-packet flows, interleaved 5-tuples,
//      SNI on a non-first packet) and on seeded random traces.
//   2. Fingerprint soundness: captures that differ only in how flows
//      interleave build equal columns, fingerprint alike and analyze alike;
//      changing which flow appears first changes the fingerprint.
//   3. Time order: every flow span of Build is in non-decreasing timestamp
//      order even when capture timestamps step backwards, and such a capture
//      builds, splits, estimates and analyzes exactly like its per-flow
//      stably time-sorted copy.
//   4. Stage identity: DetectRequests / EstimateExchanges / EstimateWindows /
//      SplitIntoGroups over a FlowView match the oracle field-for-field on
//      random interleaved traces. (End-to-end prefix identity lives in
//      cold_path_differential_test.)

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/capture/packet_columns.h"
#include "src/common/build_info.h"
#include "src/common/rng.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/inference.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/size_estimator.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"
#include "tests/aos_oracle.h"

namespace csi::capture {
namespace {

PacketRecord MakePacket(TimeUs ts, uint16_t client_port, bool from_client,
                        Bytes payload, net::Transport transport = net::Transport::kUdp,
                        std::string sni = "") {
  PacketRecord r;
  r.timestamp = ts;
  r.from_client = from_client;
  r.transport = transport;
  r.client_ip = 0x0a000001;
  r.server_ip = 0xc0a80001;
  r.client_port = client_port;
  r.server_port = 443;
  r.payload = payload;
  r.wire_size = payload + 40;
  r.tcp_seq = static_cast<uint64_t>(ts) * 7;
  r.tcp_ack = static_cast<uint64_t>(ts) * 3;
  r.quic_packet_number = static_cast<uint64_t>(ts) / 10;
  r.sni = std::move(sni);
  return r;
}

// A random capture with heavy flow interleaving: few distinct 5-tuples,
// occasional duplicate TCP sequence numbers (retransmissions), SNI sometimes
// appearing mid-flow, and both transports mixed.
CaptureTrace RandomTrace(Rng* rng, int packets) {
  CaptureTrace trace;
  const int flows = static_cast<int>(rng->UniformInt(1, 6));
  TimeUs now = 0;
  std::vector<uint64_t> last_seq(static_cast<size_t>(flows), 0);
  for (int i = 0; i < packets; ++i) {
    now += rng->UniformInt(0, 50 * kUsPerMs);
    const int f = static_cast<int>(rng->UniformInt(0, flows - 1));
    PacketRecord r;
    r.timestamp = now;
    r.from_client = rng->Chance(0.3);
    r.transport = (f % 2 == 0) ? net::Transport::kUdp : net::Transport::kTcp;
    r.client_ip = 0x0a000001;
    r.server_ip = 0xc0a80001 + static_cast<uint32_t>(f % 2);
    r.client_port = static_cast<uint16_t>(40000 + f);
    r.server_port = 443;
    r.payload = rng->Chance(0.15) ? 0 : rng->UniformInt(1, 1500);
    r.wire_size = r.payload + 40;
    // Duplicate sequence numbers now and then: the HTTPS estimator's
    // retransmission filter must behave identically over columns.
    if (rng->Chance(0.2) && last_seq[static_cast<size_t>(f)] != 0) {
      r.tcp_seq = last_seq[static_cast<size_t>(f)];
    } else {
      r.tcp_seq = rng->NextU64() % 100000;
      last_seq[static_cast<size_t>(f)] = r.tcp_seq;
    }
    r.tcp_ack = rng->NextU64() % 100000;
    r.quic_packet_number = static_cast<uint64_t>(i);
    if (rng->Chance(0.05)) {
      r.sni = (f % 2 == 0) ? "media.cdn.example" : "other.example";
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

// ---- Builder ---------------------------------------------------------------

TEST(PacketColumns, EmptyTrace) {
  const PacketColumns columns = PacketColumns::Build({});
  EXPECT_EQ(columns.packet_count(), 0u);
  EXPECT_EQ(columns.flow_count(), 0u);
}

TEST(PacketColumns, SingleFlowIsIdentityPermutation) {
  CaptureTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(MakePacket(i * 1000, 40000, i % 2 == 0, 100 + i));
  }
  const PacketColumns columns = PacketColumns::Build(trace);
  ASSERT_EQ(columns.packet_count(), trace.size());
  ASSERT_EQ(columns.flow_count(), 1u);
  EXPECT_EQ(columns.flow_begin(0), 0u);
  EXPECT_EQ(columns.flow_end(0), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(columns.timestamps()[i], trace[i].timestamp);
    EXPECT_EQ(columns.payloads()[i], trace[i].payload);
    EXPECT_EQ(columns.wire_sizes()[i], trace[i].wire_size);
    EXPECT_EQ(columns.tcp_seqs()[i], trace[i].tcp_seq);
    EXPECT_EQ(columns.tcp_acks()[i], trace[i].tcp_ack);
    EXPECT_EQ(columns.quic_packet_numbers()[i], trace[i].quic_packet_number);
    EXPECT_EQ(columns.from_client()[i] != 0, trace[i].from_client);
    EXPECT_EQ(columns.sni_at(i), trace[i].sni);
  }
}

// The reference: flow order, per-flow packet order, SNI and downlink totals
// must all match what the oracle's SplitFlows materializes.
void ExpectMatchesSplitFlows(const CaptureTrace& trace) {
  const PacketColumns columns = PacketColumns::Build(trace);
  const std::vector<oracle::Flow> flows = oracle::SplitFlows(trace);
  ASSERT_EQ(columns.packet_count(), trace.size());
  ASSERT_EQ(columns.flow_count(), flows.size());
  for (size_t f = 0; f < flows.size(); ++f) {
    const uint32_t id = static_cast<uint32_t>(f);
    EXPECT_EQ(columns.flow_key(id), flows[f].key) << "flow " << f;
    EXPECT_EQ(columns.flow_sni(id), flows[f].sni) << "flow " << f;
    EXPECT_EQ(columns.flow_downlink_bytes(id), flows[f].downlink_bytes) << "flow " << f;
    const FlowView view = columns.flow(id);
    ASSERT_EQ(view.size(), flows[f].packets.size()) << "flow " << f;
    for (size_t i = 0; i < view.size(); ++i) {
      const PacketRecord& p = flows[f].packets[i];
      EXPECT_EQ(view.timestamps()[i], p.timestamp);
      EXPECT_EQ(view.payloads()[i], p.payload);
      EXPECT_EQ(view.wire_sizes()[i], p.wire_size);
      EXPECT_EQ(view.tcp_seqs()[i], p.tcp_seq);
      EXPECT_EQ(view.from_client()[i] != 0, p.from_client);
      EXPECT_EQ(columns.tcp_acks()[view.begin + i], p.tcp_ack);
      EXPECT_EQ(columns.quic_packet_numbers()[view.begin + i], p.quic_packet_number);
      EXPECT_EQ(columns.sni_at(view.begin + i), p.sni);
      EXPECT_EQ(view.has_sni(i), !p.sni.empty());
    }
  }
}

TEST(PacketColumns, InterleavedFlowsMatchSplitFlows) {
  CaptureTrace trace;
  // Three flows interleaved packet-by-packet; one is single-packet.
  trace.push_back(MakePacket(10, 40000, true, 120, net::Transport::kUdp, "a.example"));
  trace.push_back(MakePacket(20, 40001, false, 1400, net::Transport::kTcp));
  trace.push_back(MakePacket(30, 40002, true, 90));
  trace.push_back(MakePacket(40, 40000, false, 1300));
  trace.push_back(MakePacket(50, 40001, true, 200, net::Transport::kTcp, "b.example"));
  trace.push_back(MakePacket(60, 40000, false, 1200));
  ExpectMatchesSplitFlows(trace);
}

TEST(PacketColumns, SniOnNonFirstPacket) {
  CaptureTrace trace;
  trace.push_back(MakePacket(10, 40000, true, 100));
  trace.push_back(MakePacket(20, 40000, true, 300, net::Transport::kUdp, "late.example"));
  trace.push_back(MakePacket(30, 40000, false, 1400));
  const PacketColumns columns = PacketColumns::Build(trace);
  ASSERT_EQ(columns.flow_count(), 1u);
  EXPECT_EQ(columns.flow_sni(0), "late.example");
  EXPECT_EQ(columns.sni_at(0), "");
  EXPECT_EQ(columns.sni_at(1), "late.example");
  ExpectMatchesSplitFlows(trace);
}

TEST(PacketColumns, SniInternedOncePerDistinctName) {
  CaptureTrace trace;
  trace.push_back(MakePacket(10, 40000, true, 100, net::Transport::kUdp, "x.example"));
  trace.push_back(MakePacket(20, 40001, true, 100, net::Transport::kUdp, "x.example"));
  trace.push_back(MakePacket(30, 40002, true, 100, net::Transport::kUdp, "y.example"));
  const PacketColumns columns = PacketColumns::Build(trace);
  EXPECT_EQ(columns.sni_table().size(), 2u);
}

TEST(PacketColumns, RandomTracesMatchSplitFlows) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(900 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesSplitFlows(RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 200))));
  }
}

TEST(PacketColumns, LayoutVersionMatchesBuildInfo) {
  // build_info.cc duplicates the literal so csi_common does not depend on
  // csi_capture; the two copies must not drift.
  std::string reported;
  for (const auto& [key, value] : BuildInfoLabels()) {
    if (key == "packet_layout") {
      reported = value;
    }
  }
  EXPECT_EQ(reported, kPacketLayoutVersion);
}

// ---- Fingerprint soundness -------------------------------------------------

// Re-interleaves `trace` at random: every flow keeps its own packet order and
// flows first appear in the same order as in `trace`, but which flow's packet
// comes next is otherwise random.
CaptureTrace Reinterleave(const CaptureTrace& trace, Rng* rng) {
  const std::vector<oracle::Flow> flows = oracle::SplitFlows(trace);
  std::vector<size_t> next(flows.size(), 0);
  size_t started = 0;
  CaptureTrace out;
  while (out.size() < trace.size()) {
    // Candidates: started flows with packets left, plus the next new flow.
    std::vector<size_t> candidates;
    for (size_t f = 0; f < started; ++f) {
      if (next[f] < flows[f].packets.size()) {
        candidates.push_back(f);
      }
    }
    if (started < flows.size()) {
      candidates.push_back(started);
    }
    const size_t f = candidates[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    if (f == started) {
      ++started;
    }
    out.push_back(flows[f].packets[next[f]++]);
  }
  return out;
}

void ExpectSameColumns(const PacketColumns& a, const PacketColumns& b) {
  ASSERT_EQ(a.packet_count(), b.packet_count());
  ASSERT_EQ(a.flow_count(), b.flow_count());
  for (uint32_t f = 0; f < a.flow_count(); ++f) {
    EXPECT_EQ(a.flow_key(f), b.flow_key(f));
    EXPECT_EQ(a.flow_sni(f), b.flow_sni(f));
    EXPECT_EQ(a.flow_begin(f), b.flow_begin(f));
    EXPECT_EQ(a.flow_downlink_bytes(f), b.flow_downlink_bytes(f));
  }
  for (size_t i = 0; i < a.packet_count(); ++i) {
    EXPECT_EQ(a.timestamps()[i], b.timestamps()[i]);
    EXPECT_EQ(a.payloads()[i], b.payloads()[i]);
    EXPECT_EQ(a.sni_at(i), b.sni_at(i));
  }
}

TEST(PacketColumns, InterleavingDoesNotChangeColumnsOrFingerprint) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(1700 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CaptureTrace trace = RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 150)));
    const CaptureTrace shuffled = Reinterleave(trace, &rng);
    const PacketColumns a = PacketColumns::Build(trace);
    const PacketColumns b = PacketColumns::Build(shuffled);
    ExpectSameColumns(a, b);
    EXPECT_EQ(infer::FingerprintColumns(a), infer::FingerprintColumns(b));
  }
}

TEST(PacketColumns, InterleavingKeepsAnalysisAndFlowOrderChangesFingerprint) {
  const TimeUs duration = 40 * kUsPerSec;
  const media::Manifest manifest =
      testbed::MakeAssetForDesign(infer::DesignType::kCH, 0, duration);
  testbed::SessionConfig config;
  config.design = infer::DesignType::kCH;
  config.manifest = &manifest;
  config.downlink = nettrace::StableTrace("s", 4 * kMbps);
  config.duration = duration;
  config.seed = 5;
  const CaptureTrace session = testbed::RunStreamingSession(config).capture;
  ASSERT_FALSE(session.empty());

  // A second, non-media flow that starts just after the session's first
  // packet and runs through the whole capture.
  CaptureTrace probe;
  for (int i = 0; i < 60; ++i) {
    PacketRecord p = MakePacket(session.front().timestamp + 1 + i * 500 * kUsPerMs, 61000,
                                i % 3 == 0, 300 + i, net::Transport::kTcp,
                                i == 0 ? "probe.other.example" : "");
    p.server_ip = 0xc0a800fe;
    probe.push_back(p);
  }
  const auto by_time = [](const PacketRecord& x, const PacketRecord& y) {
    return x.timestamp < y.timestamp;
  };
  // Same first-appearance order (session first), two interleavings: the
  // probe appended after the session, and the probe merged in by time.
  CaptureTrace appended = session;
  appended.insert(appended.end(), probe.begin(), probe.end());
  CaptureTrace merged;
  std::merge(session.begin(), session.end(), probe.begin(), probe.end(),
             std::back_inserter(merged), by_time);
  ASSERT_EQ(merged.front().timestamp, session.front().timestamp);
  // The probe flow first.
  CaptureTrace probe_first = probe;
  probe_first.insert(probe_first.end(), session.begin(), session.end());

  const PacketColumns a = PacketColumns::Build(appended);
  const PacketColumns b = PacketColumns::Build(merged);
  const PacketColumns c = PacketColumns::Build(probe_first);
  EXPECT_EQ(infer::FingerprintColumns(a), infer::FingerprintColumns(b));
  EXPECT_NE(infer::FingerprintColumns(a), infer::FingerprintColumns(c));

  infer::InferenceConfig engine_config;
  engine_config.design = infer::DesignType::kCH;
  const infer::InferenceEngine engine(
      infer::DbSnapshot(std::make_shared<const infer::ChunkDatabase>(&manifest)),
      engine_config);
  const infer::InferenceResult result = engine.Analyze(a);
  EXPECT_FALSE(result.sequences.empty());
  EXPECT_EQ(engine.Analyze(b), result);
}

// ---- Stage identity --------------------------------------------------------

// Production stages over Build(trace) against the oracle over `reference`
// (the trace itself, or its per-flow time-sorted copy).
void ExpectStagesMatch(const CaptureTrace& trace, const CaptureTrace& reference) {
  const PacketColumns columns = PacketColumns::Build(trace);
  const std::vector<oracle::Flow> flows = oracle::SplitFlows(reference);
  ASSERT_EQ(columns.flow_count(), flows.size());
  for (size_t f = 0; f < flows.size(); ++f) {
    const FlowView view = columns.flow(static_cast<uint32_t>(f));
    for (const bool quic : {false, true}) {
      const auto aos_req = oracle::DetectRequests(flows[f].packets, quic);
      const auto soa_req = infer::DetectRequests(view, quic);
      ASSERT_EQ(aos_req.size(), soa_req.size()) << "flow " << f << " quic " << quic;
      for (size_t i = 0; i < aos_req.size(); ++i) {
        EXPECT_EQ(aos_req[i].time, soa_req[i].time);
        EXPECT_EQ(aos_req[i].carries_sni, soa_req[i].carries_sni);
      }

      const auto aos_ex = oracle::EstimateExchanges(flows[f].packets, quic);
      const auto soa_ex = infer::EstimateExchanges(view, quic);
      ASSERT_EQ(aos_ex.size(), soa_ex.size()) << "flow " << f << " quic " << quic;
      for (size_t i = 0; i < aos_ex.size(); ++i) {
        EXPECT_EQ(aos_ex[i].request_time, soa_ex[i].request_time);
        EXPECT_EQ(aos_ex[i].last_data_time, soa_ex[i].last_data_time);
        EXPECT_EQ(aos_ex[i].estimated_size, soa_ex[i].estimated_size);
        EXPECT_EQ(aos_ex[i].carries_sni, soa_ex[i].carries_sni);
      }

      // Arbitrary window starts, including an empty (t, t] window.
      const std::vector<TimeUs> starts{-1, 0, 500 * kUsPerMs, 500 * kUsPerMs,
                                       1 * kUsPerSec};
      const auto windows = infer::EstimateWindows(view, quic, starts);
      ASSERT_EQ(windows.size(), starts.size());
      for (size_t w = 0; w < starts.size(); ++w) {
        const TimeUs end = w + 1 < starts.size() ? starts[w + 1] : -1;
        EXPECT_EQ(windows[w].bytes,
                  oracle::EstimateDownlinkBytes(flows[f].packets, quic, starts[w], end))
            << "flow " << f << " quic " << quic << " window " << w;
      }
    }

    const auto aos_groups = oracle::SplitIntoGroups(flows[f].packets);
    const auto soa_groups = infer::SplitIntoGroups(view);
    ASSERT_EQ(aos_groups.size(), soa_groups.size()) << "flow " << f;
    for (size_t g = 0; g < aos_groups.size(); ++g) {
      EXPECT_EQ(aos_groups[g].start_time, soa_groups[g].start_time);
      EXPECT_EQ(aos_groups[g].end_time, soa_groups[g].end_time);
      EXPECT_EQ(aos_groups[g].estimated_total, soa_groups[g].estimated_total);
      ASSERT_EQ(aos_groups[g].requests.size(), soa_groups[g].requests.size());
      for (size_t i = 0; i < aos_groups[g].requests.size(); ++i) {
        EXPECT_EQ(aos_groups[g].requests[i].time, soa_groups[g].requests[i].time);
        EXPECT_EQ(aos_groups[g].requests[i].carries_sni,
                  soa_groups[g].requests[i].carries_sni);
      }
    }
  }
}

TEST(PacketColumns, StageOutputsMatchOracle) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(4400 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CaptureTrace trace = RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 250)));
    ExpectStagesMatch(trace, trace);
  }
}

// ---- Time order ------------------------------------------------------------

// Moves `count` random packets up to 200 ms back in time (not below 0), so
// they land before packets captured ahead of them.
CaptureTrace StepBackwards(CaptureTrace trace, Rng* rng, int count) {
  for (int k = 0; k < count && !trace.empty(); ++k) {
    PacketRecord& p = trace[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(trace.size()) - 1))];
    p.timestamp = std::max<TimeUs>(0, p.timestamp - rng->UniformInt(1, 200 * kUsPerMs));
  }
  return trace;
}

// `trace` with each flow's packets stably sorted by timestamp inside the
// capture slots that flow occupies, so flow first-appearance order is kept.
CaptureTrace SortEachFlowByTime(const CaptureTrace& trace) {
  std::map<FlowKey, std::vector<size_t>> slots;
  for (size_t i = 0; i < trace.size(); ++i) {
    slots[FlowKeyOf(trace[i])].push_back(i);
  }
  CaptureTrace sorted = trace;
  for (const auto& [key, where] : slots) {
    std::vector<size_t> order = where;
    std::stable_sort(order.begin(), order.end(), [&trace](size_t a, size_t b) {
      return trace[a].timestamp < trace[b].timestamp;
    });
    for (size_t k = 0; k < where.size(); ++k) {
      sorted[where[k]] = trace[order[k]];
    }
  }
  return sorted;
}

bool EveryFlowInTimeOrder(const CaptureTrace& trace) {
  for (const oracle::Flow& flow : oracle::SplitFlows(trace)) {
    if (!std::is_sorted(flow.packets.begin(), flow.packets.end(),
                        [](const PacketRecord& a, const PacketRecord& b) {
                          return a.timestamp < b.timestamp;
                        })) {
      return false;
    }
  }
  return true;
}

TEST(PacketColumns, BackwardTimestampsBuildLikeThePerFlowSortedCapture) {
  int stepped_back = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(8100 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CaptureTrace trace =
        StepBackwards(RandomTrace(&rng, static_cast<int>(rng.UniformInt(20, 250))), &rng, 6);
    stepped_back += EveryFlowInTimeOrder(trace) ? 0 : 1;
    const CaptureTrace sorted = SortEachFlowByTime(trace);
    const PacketColumns columns = PacketColumns::Build(trace);
    for (uint32_t f = 0; f < columns.flow_count(); ++f) {
      EXPECT_TRUE(std::is_sorted(columns.timestamps() + columns.flow_begin(f),
                                 columns.timestamps() + columns.flow_end(f)))
          << "flow " << f;
    }
    ExpectSameColumns(columns, PacketColumns::Build(sorted));
    ExpectStagesMatch(trace, sorted);
  }
  // The sweep must actually have seen out-of-order flows.
  EXPECT_GT(stepped_back, 20);
}

TEST(PacketColumns, BackwardTimestampsAnalyzeLikeThePerFlowSortedCapture) {
  const TimeUs duration = 40 * kUsPerSec;
  for (const infer::DesignType design : {infer::DesignType::kCH, infer::DesignType::kSQ}) {
    SCOPED_TRACE(infer::DesignTypeName(design));
    const media::Manifest manifest = testbed::MakeAssetForDesign(design, 0, duration);
    testbed::SessionConfig config;
    config.design = design;
    config.manifest = &manifest;
    config.downlink = nettrace::StableTrace("s", 4 * kMbps);
    config.duration = duration;
    config.seed = 9;
    Rng rng(77);
    const CaptureTrace trace =
        StepBackwards(testbed::RunStreamingSession(config).capture, &rng, 40);
    ASSERT_FALSE(EveryFlowInTimeOrder(trace));
    infer::InferenceConfig engine_config;
    engine_config.design = design;
    const infer::InferenceEngine engine(
        infer::DbSnapshot(std::make_shared<const infer::ChunkDatabase>(&manifest)),
        engine_config);
    const infer::InferenceResult result = engine.Analyze(PacketColumns::Build(trace));
    EXPECT_FALSE(result.sequences.empty());
    EXPECT_EQ(engine.Analyze(PacketColumns::Build(SortEachFlowByTime(trace))), result);
  }
}

TEST(PacketColumns, ClassifyMediaFlowIdsMatchesOracle) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(6200 + seed);
    const CaptureTrace trace = RandomTrace(&rng, static_cast<int>(rng.UniformInt(0, 200)));
    const PacketColumns columns = PacketColumns::Build(trace);
    const auto media = oracle::ClassifyMediaFlows(trace, "cdn.example");
    const auto ids = infer::ClassifyMediaFlowIds(columns, "cdn.example");
    ASSERT_EQ(media.size(), ids.size()) << "seed " << seed;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(columns.flow_key(ids[i]), media[i].key);
      EXPECT_EQ(columns.flow_sni(ids[i]), media[i].sni);
      EXPECT_EQ(columns.flow_downlink_bytes(ids[i]), media[i].downlink_bytes);
      EXPECT_EQ(columns.flow(ids[i]).size(), media[i].packets.size());
    }
  }
}

}  // namespace
}  // namespace csi::capture
