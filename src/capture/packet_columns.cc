#include "src/capture/packet_columns.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <type_traits>
#include <utility>

namespace csi::capture {

const std::string PacketColumns::empty_sni_;

PacketColumns PacketColumns::Build(const CaptureTrace& trace) {
  PacketColumns c;
  const size_t n = trace.size();
  // Flow id and SNI reference of each capture index; scratch for the scatter.
  std::vector<uint32_t> capture_flow(n);
  std::vector<int32_t> capture_sni(n, -1);

  // Pass 1: intern flow keys in first-appearance order, count packets per
  // flow and flow-id runs, and intern the distinct SNI strings.
  std::map<FlowKey, uint32_t> flow_ids;
  std::map<std::string, int32_t> sni_ids;
  std::vector<uint32_t> counts;
  size_t runs = 0;
  for (size_t i = 0; i < n; ++i) {
    const PacketRecord& r = trace[i];
    const auto [it, inserted] = flow_ids.try_emplace(
        FlowKeyOf(r), static_cast<uint32_t>(c.flow_keys_.size()));
    if (inserted) {
      c.flow_keys_.push_back(it->first);
      counts.push_back(0);
    }
    const uint32_t f = it->second;
    runs += (i == 0 || capture_flow[i - 1] != f) ? 1 : 0;
    capture_flow[i] = f;
    ++counts[f];
    if (!r.sni.empty()) {
      const auto [sit, sni_inserted] = sni_ids.try_emplace(
          r.sni, static_cast<int32_t>(c.sni_table_.size()));
      if (sni_inserted) {
        c.sni_table_.push_back(sit->first);
      }
      capture_sni[i] = sit->second;
    }
  }

  const size_t flows = c.flow_keys_.size();
  c.flow_begin_.resize(flows + 1, 0);
  for (size_t f = 0; f < flows; ++f) {
    c.flow_begin_[f + 1] = c.flow_begin_[f] + counts[f];
  }

  // Pass 2: scatter the scalar fields into the flow-major columns. When every
  // flow's packets are already contiguous, the runs appear in
  // first-appearance (= id) order, so capture index i is slot i and no
  // cursors are needed.
  const bool contiguous = runs == flows;
  std::vector<size_t> cursor(c.flow_begin_.begin(), c.flow_begin_.begin() + flows);
  c.ts_.resize(n);
  c.payload_.resize(n);
  c.wire_.resize(n);
  c.seq_.resize(n);
  c.ack_.resize(n);
  c.pn_.resize(n);
  c.dir_.resize(n);
  c.sni_ref_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const PacketRecord& r = trace[i];
    const size_t slot = contiguous ? i : cursor[capture_flow[i]]++;
    c.ts_[slot] = r.timestamp;
    c.payload_[slot] = r.payload;
    c.wire_[slot] = r.wire_size;
    c.seq_[slot] = r.tcp_seq;
    c.ack_[slot] = r.tcp_ack;
    c.pn_[slot] = r.quic_packet_number;
    c.dir_[slot] = r.from_client ? 1 : 0;
    c.sni_ref_[slot] = capture_sni[i];
  }

  // Time order per flow (a real pcap can step backwards), then the per-flow
  // downlink totals and first non-empty SNIs straight off the ordered columns.
  c.flow_snis_.resize(flows);
  c.flow_downlink_.resize(flows, 0);
  for (size_t f = 0; f < flows; ++f) {
    const size_t b = c.flow_begin_[f];
    const size_t e = c.flow_begin_[f + 1];
    if (!std::is_sorted(c.ts_.begin() + b, c.ts_.begin() + e)) {
      // Stable sort by timestamp, every column moved along.
      std::vector<size_t> order(e - b);
      std::iota(order.begin(), order.end(), b);
      std::stable_sort(order.begin(), order.end(),
                       [&c](size_t x, size_t y) { return c.ts_[x] < c.ts_[y]; });
      const auto permute = [&order, b](auto& column) {
        std::vector<std::decay_t<decltype(column[0])>> span;
        span.reserve(order.size());
        for (const size_t i : order) {
          span.push_back(column[i]);
        }
        std::copy(span.begin(), span.end(), column.begin() + static_cast<long>(b));
      };
      permute(c.ts_);
      permute(c.payload_);
      permute(c.wire_);
      permute(c.seq_);
      permute(c.ack_);
      permute(c.pn_);
      permute(c.dir_);
      permute(c.sni_ref_);
    }
    for (size_t i = b; i < e; ++i) {
      if (c.dir_[i] == 0) {
        c.flow_downlink_[f] += c.payload_[i];
      }
      if (c.sni_ref_[i] >= 0 && c.flow_snis_[f].empty()) {
        c.flow_snis_[f] = c.sni_table_[c.sni_ref_[i]];
      }
    }
  }
  return c;
}

}  // namespace csi::capture
