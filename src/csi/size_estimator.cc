#include "src/csi/size_estimator.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace csi::infer {
namespace {

// Two uplink TCP data packets closer than this are segments of one request
// message (requests themselves are separated by at least a response RTT).
constexpr TimeUs kRequestMergeGap = 25 * kUsPerMs;

}  // namespace

std::vector<DetectedRequest> DetectRequests(const capture::FlowView& flow,
                                            bool quic) {
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const int64_t* payload = flow.payloads();
  const uint8_t* dir = flow.from_client();
  std::vector<DetectedRequest> requests;
  if (quic) {
    // Uplink packets at or above the request threshold.
    for (size_t i = 0; i < n; ++i) {
      if (dir[i] != 0 && payload[i] >= kQuicRequestThreshold) {
        requests.push_back(DetectedRequest{ts[i], flow.has_sni(i)});
      }
    }
    return requests;
  }
  // HTTPS: a stateful walk over the uplink data packets: de-duplicate by
  // sequence number and merge segments that are contiguous in sequence and
  // near-simultaneous (multi-segment request messages).
  const uint64_t* seq = flow.tcp_seqs();
  std::unordered_set<uint64_t> seen;
  uint64_t last_end_seq = 0;
  TimeUs last_time = -kUsPerSec;
  bool have_last = false;
  for (size_t i = 0; i < n; ++i) {
    if (dir[i] == 0 || payload[i] <= 0) {
      continue;
    }
    if (!seen.insert(seq[i]).second) {
      continue;  // retransmission
    }
    const bool contiguous = have_last && seq[i] == last_end_seq;
    const bool near = ts[i] - last_time <= kRequestMergeGap;
    if (contiguous && near) {
      last_end_seq = seq[i] + static_cast<uint64_t>(payload[i]);
      last_time = ts[i];
      if (flow.has_sni(i)) {
        requests.back().carries_sni = true;
      }
      continue;
    }
    requests.push_back(DetectedRequest{ts[i], flow.has_sni(i)});
    last_end_seq = seq[i] + static_cast<uint64_t>(payload[i]);
    last_time = ts[i];
    have_last = true;
  }
  return requests;
}

std::vector<WindowEstimate> EstimateWindows(const capture::FlowView& flow,
                                            bool quic,
                                            const std::vector<TimeUs>& starts) {
  std::vector<WindowEstimate> windows(starts.size());
  if (starts.empty()) {
    return windows;
  }
  for (size_t r = 0; r < starts.size(); ++r) {
    windows[r].last_data_time = starts[r];
  }
  const size_t n = flow.size();
  const int64_t* ts = flow.timestamps();
  const int64_t* payload = flow.payloads();
  const uint8_t* dir = flow.from_client();
  const uint64_t* seq = flow.tcp_seqs();
  std::unordered_set<uint64_t> seen;  // HTTPS: sequence numbers already counted
  size_t r = 0;  // window of the current packet; only ever moves forward
  for (size_t i = 0; i < n; ++i) {
    if (dir[i] != 0 || payload[i] <= 0) {
      continue;
    }
    // QUIC: the UDP payload minus the public header (retransmissions carry
    // new packet numbers and cannot be told apart). HTTPS: the TLS bytes of
    // the first packet with each sequence number; a repeat is a
    // retransmission, dropped per §3.2 wherever it falls.
    Bytes bytes = 0;
    if (quic) {
      bytes = std::max<Bytes>(payload[i] - net::kQuicHeaderBytes, 0);
    } else if (seen.insert(seq[i]).second) {
      bytes = payload[i];
    } else {
      continue;
    }
    if (ts[i] <= starts[0]) {
      continue;  // before the first window
    }
    while (r + 1 < starts.size() && ts[i] > starts[r + 1]) {
      ++r;
    }
    windows[r].bytes += bytes;
    windows[r].last_data_time = ts[i];
  }
  return windows;
}

std::vector<EstimatedExchange> EstimateExchanges(const capture::FlowView& flow,
                                                 bool quic) {
  const std::vector<DetectedRequest> requests = DetectRequests(flow, quic);
  std::vector<TimeUs> starts;
  starts.reserve(requests.size());
  for (const DetectedRequest& request : requests) {
    starts.push_back(request.time);
  }
  const std::vector<WindowEstimate> windows = EstimateWindows(flow, quic, starts);
  std::vector<EstimatedExchange> exchanges;
  exchanges.reserve(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    EstimatedExchange ex;
    ex.request_time = requests[r].time;
    ex.carries_sni = requests[r].carries_sni;
    ex.estimated_size = windows[r].bytes;
    ex.last_data_time = windows[r].last_data_time;
    exchanges.push_back(ex);
  }
  return exchanges;
}

}  // namespace csi::infer
