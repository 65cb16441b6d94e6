#include "tests/aos_oracle.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>

namespace csi::oracle {
namespace {

using infer::DetectedRequest;
using infer::EstimatedExchange;
using infer::TrafficGroup;

// Two uplink TCP data packets closer than this are segments of one request
// message.
constexpr TimeUs kRequestMergeGap = 25 * kUsPerMs;

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// First-occurrence flags for downlink data packets of an HTTPS flow
// (duplicate TCP sequence numbers = retransmissions).
std::vector<bool> FirstOccurrenceDownlink(const PacketList& flow) {
  std::vector<bool> first(flow.size(), false);
  std::set<uint64_t> seen;
  for (size_t i = 0; i < flow.size(); ++i) {
    const auto& p = flow[i];
    if (p.from_client || p.payload <= 0) {
      continue;
    }
    first[i] = seen.insert(p.tcp_seq).second;
  }
  return first;
}

}  // namespace

std::vector<Flow> SplitFlows(const capture::CaptureTrace& trace) {
  std::vector<Flow> flows;
  std::map<capture::FlowKey, size_t> index;
  for (const auto& record : trace) {
    const capture::FlowKey key = FlowKeyOf(record);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, flows.size()).first;
      flows.push_back(Flow{key, {}, {}, 0});
    }
    Flow& flow = flows[it->second];
    if (!record.sni.empty() && flow.sni.empty()) {
      flow.sni = record.sni;
    }
    if (!record.from_client) {
      flow.downlink_bytes += record.payload;
    }
    flow.packets.push_back(record);
  }
  return flows;
}

std::vector<Flow> ClassifyMediaFlows(const capture::CaptureTrace& trace,
                                     const std::string& host_suffix) {
  std::vector<Flow> media;
  for (Flow& flow : SplitFlows(trace)) {
    if (!flow.sni.empty() && HasSuffix(flow.sni, host_suffix)) {
      media.push_back(std::move(flow));
    }
  }
  return media;
}

std::vector<DetectedRequest> DetectRequests(const PacketList& flow, bool quic) {
  std::vector<DetectedRequest> requests;
  if (quic) {
    for (const auto& p : flow) {
      if (p.from_client && p.payload >= infer::kQuicRequestThreshold) {
        requests.push_back(DetectedRequest{p.timestamp, !p.sni.empty()});
      }
    }
    return requests;
  }
  // HTTPS: uplink packets with payload, de-duplicated by sequence number and
  // merged when contiguous in sequence and near-simultaneous.
  std::set<uint64_t> seen;
  uint64_t last_end_seq = 0;
  TimeUs last_time = -kUsPerSec;
  bool have_last = false;
  for (const auto& p : flow) {
    if (!p.from_client || p.payload <= 0) {
      continue;
    }
    if (!seen.insert(p.tcp_seq).second) {
      continue;  // retransmission
    }
    const bool contiguous = have_last && p.tcp_seq == last_end_seq;
    const bool near = p.timestamp - last_time <= kRequestMergeGap;
    if (contiguous && near) {
      last_end_seq = p.tcp_seq + static_cast<uint64_t>(p.payload);
      last_time = p.timestamp;
      if (!p.sni.empty()) {
        requests.back().carries_sni = true;
      }
      continue;
    }
    requests.push_back(DetectedRequest{p.timestamp, !p.sni.empty()});
    last_end_seq = p.tcp_seq + static_cast<uint64_t>(p.payload);
    last_time = p.timestamp;
    have_last = true;
  }
  return requests;
}

Bytes EstimateDownlinkBytes(const PacketList& flow, bool quic, TimeUs begin, TimeUs end) {
  Bytes total = 0;
  if (quic) {
    for (const auto& p : flow) {
      if (p.from_client || p.payload <= 0) {
        continue;
      }
      if (p.timestamp <= begin || (end >= 0 && p.timestamp > end)) {
        continue;
      }
      total += std::max<Bytes>(p.payload - net::kQuicHeaderBytes, 0);
    }
    return total;
  }
  const std::vector<bool> first = FirstOccurrenceDownlink(flow);
  for (size_t i = 0; i < flow.size(); ++i) {
    if (!first[i]) {
      continue;
    }
    const auto& p = flow[i];
    if (p.timestamp <= begin || (end >= 0 && p.timestamp > end)) {
      continue;
    }
    total += p.payload;
  }
  return total;
}

std::vector<EstimatedExchange> EstimateExchanges(const PacketList& flow, bool quic) {
  const std::vector<DetectedRequest> requests = DetectRequests(flow, quic);
  std::vector<EstimatedExchange> exchanges;
  const std::vector<bool> first = quic ? std::vector<bool>() : FirstOccurrenceDownlink(flow);
  for (size_t r = 0; r < requests.size(); ++r) {
    const TimeUs begin = requests[r].time;
    const TimeUs end = r + 1 < requests.size() ? requests[r + 1].time : -1;
    EstimatedExchange ex;
    ex.request_time = begin;
    ex.last_data_time = begin;
    ex.carries_sni = requests[r].carries_sni;
    for (size_t i = 0; i < flow.size(); ++i) {
      const auto& p = flow[i];
      if (p.from_client || p.payload <= 0) {
        continue;
      }
      if (p.timestamp <= begin || (end >= 0 && p.timestamp > end)) {
        continue;
      }
      if (quic) {
        ex.estimated_size += std::max<Bytes>(p.payload - net::kQuicHeaderBytes, 0);
      } else {
        if (!first[i]) {
          continue;
        }
        ex.estimated_size += p.payload;
      }
      ex.last_data_time = std::max(ex.last_data_time, p.timestamp);
    }
    exchanges.push_back(ex);
  }
  return exchanges;
}

std::vector<TrafficGroup> SplitIntoGroups(const PacketList& flow,
                                          const infer::SplitterConfig& config) {
  // Timestamps of downlink data packets, for idle detection and the SP2
  // "no data in between" check.
  std::vector<TimeUs> downlink_times;
  for (const auto& p : flow) {
    if (!p.from_client && p.payload > net::kQuicHeaderBytes) {
      downlink_times.push_back(p.timestamp);
    }
  }
  // The padded Initial (ClientHello) is handshake, not HTTP.
  std::vector<DetectedRequest> requests = DetectRequests(flow, /*quic=*/true);
  std::erase_if(requests, [](const DetectedRequest& r) { return r.carries_sni; });
  std::vector<TrafficGroup> groups;
  if (requests.empty()) {
    return groups;
  }

  auto downlink_in = [&downlink_times](TimeUs lo, TimeUs hi) {
    auto it = std::upper_bound(downlink_times.begin(), downlink_times.end(), lo);
    return it != downlink_times.end() && *it < hi;
  };
  auto last_activity_before = [&](TimeUs t, size_t req_idx) {
    TimeUs last = -1;
    auto it = std::lower_bound(downlink_times.begin(), downlink_times.end(), t);
    if (it != downlink_times.begin()) {
      last = *std::prev(it);
    }
    if (req_idx > 0) {
      last = std::max(last, requests[req_idx - 1].time);
    }
    return last;
  };

  std::vector<size_t> boundaries{0};
  for (size_t i = 1; i < requests.size(); ++i) {
    const TimeUs t = requests[i].time;
    const TimeUs last = last_activity_before(t, i);
    const bool sp1 = config.enable_sp1 && last >= 0 && t - last >= config.idle_threshold;
    const bool sp2 = config.enable_sp2 && i + 1 < requests.size() &&
                     requests[i + 1].time - t <= config.simultaneity_window &&
                     !downlink_in(t, requests[i + 1].time);
    if ((sp1 || sp2) && boundaries.back() != i) {
      boundaries.push_back(i);
    }
  }

  for (size_t b = 0; b < boundaries.size(); ++b) {
    const size_t first = boundaries[b];
    const size_t next = b + 1 < boundaries.size() ? boundaries[b + 1] : requests.size();
    TrafficGroup group;
    group.requests.assign(requests.begin() + static_cast<long>(first),
                          requests.begin() + static_cast<long>(next));
    group.start_time = requests[first].time;
    group.end_time = next < requests.size() ? requests[next].time : -1;
    group.estimated_total =
        EstimateDownlinkBytes(flow, /*quic=*/true, group.start_time, group.end_time);
    if (group.end_time < 0 && !flow.empty()) {
      group.end_time = flow.back().timestamp;
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

infer::AnalysisPrefix ComputeAnalysisPrefix(const capture::CaptureTrace& trace,
                                            infer::DesignType design,
                                            const std::string& host_suffix,
                                            const infer::SplitterConfig& splitter) {
  infer::AnalysisPrefix prefix;
  const std::vector<Flow> flows = ClassifyMediaFlows(trace, host_suffix);
  prefix.media_flows = static_cast<int>(flows.size());
  if (flows.empty()) {
    return prefix;
  }
  // The first flow with the largest downlink total.
  const auto main_flow = std::max_element(
      flows.begin(), flows.end(),
      [](const Flow& a, const Flow& b) { return a.downlink_bytes < b.downlink_bytes; });
  if (design == infer::DesignType::kSQ) {
    prefix.groups = SplitIntoGroups(main_flow->packets, splitter);
    return prefix;
  }
  for (const EstimatedExchange& ex : EstimateExchanges(main_flow->packets, infer::IsQuic(design))) {
    if (!ex.carries_sni) {
      prefix.exchanges.push_back(ex);
    }
  }
  return prefix;
}

}  // namespace csi::oracle
