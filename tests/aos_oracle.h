// Test-only reference for the per-packet inference stages.
//
// The production front end (flow classification, request detection, size
// estimation, SP1/SP2 traffic splitting; paper §5.3.1 Steps 1.1-1.2) runs
// over `capture::PacketColumns` with SIMD column kernels. This oracle is a
// frozen, deliberately naive copy of the same stages written directly over
// the array-of-structs `CaptureTrace`: per-flow packet vectors, plain scalar
// loops, no SIMD, no scratch reuse. The differential tests compare its output
// with production field for field, so a bug in the column builder, a kernel
// or a stage shows up as a mismatch against code that shares none of them.
//
// It is linked only into tests. Keep it frozen: a behaviour change belongs in
// production first, and then here only if the tests prove the change right.

#ifndef CSI_TESTS_AOS_ORACLE_H_
#define CSI_TESTS_AOS_ORACLE_H_

#include <string>
#include <vector>

#include "src/capture/packet_record.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/size_estimator.h"
#include "src/csi/splitter.h"
#include "src/csi/types.h"

namespace csi::oracle {

using PacketList = std::vector<capture::PacketRecord>;

struct Flow {
  capture::FlowKey key;
  std::string sni;     // first non-empty SNI of the flow
  PacketList packets;  // in capture order
  Bytes downlink_bytes = 0;
};

// All flows in the capture, in order of first appearance.
std::vector<Flow> SplitFlows(const capture::CaptureTrace& trace);

// The flows whose SNI ends in `host_suffix`, in first-appearance order.
std::vector<Flow> ClassifyMediaFlows(const capture::CaptureTrace& trace,
                                     const std::string& host_suffix);

std::vector<infer::DetectedRequest> DetectRequests(const PacketList& flow, bool quic);
std::vector<infer::EstimatedExchange> EstimateExchanges(const PacketList& flow, bool quic);
// Estimated downlink object bytes in the window (begin, end]; end < 0 means
// "until the end of the flow".
Bytes EstimateDownlinkBytes(const PacketList& flow, bool quic, TimeUs begin, TimeUs end);
std::vector<infer::TrafficGroup> SplitIntoGroups(const PacketList& flow,
                                                 const infer::SplitterConfig& config = {});

// The reference for infer::ComputeAnalysisPrefix.
infer::AnalysisPrefix ComputeAnalysisPrefix(const capture::CaptureTrace& trace,
                                            infer::DesignType design,
                                            const std::string& host_suffix,
                                            const infer::SplitterConfig& splitter);

}  // namespace csi::oracle

#endif  // CSI_TESTS_AOS_ORACLE_H_
