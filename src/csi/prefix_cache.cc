#include "src/csi/prefix_cache.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <utility>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"

namespace csi::infer {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// The two independent mixes behind the 128-bit fingerprint: a word-granular
// FNV-1a (lo) and the boost-style combine the candidate cache uses (hi). They
// share no structure, so a collision requires both to collide on the same
// field stream.
inline uint64_t FnvStep(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

inline uint64_t MixStep(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

// In-process override simulating CSI_CACHE=prefix:off (the real env read is
// latched in a function-local static and cannot be flipped after first use).
std::atomic<bool> g_force_env_off{false};

// Accumulates the two mixes over the observer-visible field stream. The AoS
// and columnar fingerprints both feed packets through AbsorbPacket in capture
// order, so they cannot drift apart field-by-field.
struct Mixer {
  uint64_t lo = kFnvOffset;
  uint64_t hi = 0x9AE16A3B2F90404Full;  // arbitrary odd seed, distinct from lo

  void Absorb(uint64_t v) {
    lo = FnvStep(lo, v);
    hi = MixStep(hi, v);
  }

  void AbsorbPacket(TimeUs timestamp, const capture::FlowKey& key,
                    bool from_client, Bytes payload, Bytes wire_size,
                    uint64_t tcp_seq, uint64_t tcp_ack,
                    uint64_t quic_packet_number, const std::string& sni) {
    Absorb(static_cast<uint64_t>(timestamp));
    // Pack the small fields into one word so short traces still stir both
    // accumulators per packet instead of feeding runs of near-zero words.
    Absorb((static_cast<uint64_t>(key.client_port) << 48) |
           (static_cast<uint64_t>(key.server_port) << 32) |
           (static_cast<uint64_t>(static_cast<uint8_t>(key.transport)) << 8) |
           static_cast<uint64_t>(from_client ? 1 : 0));
    Absorb((static_cast<uint64_t>(key.client_ip) << 32) |
           static_cast<uint64_t>(key.server_ip));
    Absorb(static_cast<uint64_t>(payload));
    Absorb(static_cast<uint64_t>(wire_size));
    Absorb(tcp_seq);
    Absorb(tcp_ack);
    Absorb(quic_packet_number);
    Absorb(static_cast<uint64_t>(sni.size()));
    for (const char c : sni) {
      Absorb(static_cast<uint64_t>(static_cast<uint8_t>(c)));
    }
  }
};

}  // namespace

TraceFingerprint FingerprintTrace(const capture::CaptureTrace& trace) {
  Mixer mixer;
  mixer.Absorb(static_cast<uint64_t>(trace.size()));
  for (const capture::PacketRecord& p : trace) {
    mixer.AbsorbPacket(p.timestamp, FlowKeyOf(p), p.from_client, p.payload,
                       p.wire_size, p.tcp_seq, p.tcp_ack, p.quic_packet_number,
                       p.sni);
  }
  return TraceFingerprint{mixer.lo, mixer.hi};
}

TraceFingerprint FingerprintColumns(const capture::PacketColumns& columns) {
  Mixer mixer;
  const size_t n = columns.packet_count();
  mixer.Absorb(static_cast<uint64_t>(n));
  // Replay the original capture order through the (flow, slot) maps so the
  // field stream matches FingerprintTrace exactly.
  const uint32_t* flow_of = columns.capture_flow();
  const uint32_t* slot_of = columns.capture_slot();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t slot = slot_of[i];
    mixer.AbsorbPacket(columns.timestamps()[slot],
                       columns.flow_key(flow_of[i]),
                       columns.from_client()[slot] != 0,
                       columns.payloads()[slot], columns.wire_sizes()[slot],
                       columns.tcp_seqs()[slot], columns.tcp_acks()[slot],
                       columns.quic_packet_numbers()[slot],
                       columns.sni_at(slot));
  }
  return TraceFingerprint{mixer.lo, mixer.hi};
}

size_t AnalysisPrefixCache::QueryHash::operator()(const Query& q) const {
  uint64_t h = q.fingerprint.lo;
  h = MixStep(h, q.fingerprint.hi);
  h = MixStep(h, q.context);
  return static_cast<size_t>(h);
}

AnalysisPrefixCache::AnalysisPrefixCache(size_t budget_bytes, int shards)
    : store_(budget_bytes, shards) {}

bool AnalysisPrefixCache::EnvForcesOff() {
  static const bool off = CsiCacheEnvDisables("prefix");
  return off || g_force_env_off.load(std::memory_order_relaxed);
}

void AnalysisPrefixCache::ForceEnvOffForTest(bool off) {
  g_force_env_off.store(off, std::memory_order_relaxed);
}

uint32_t AnalysisPrefixCache::InternContext(DesignType design, const std::string& host_suffix,
                                            const SplitterConfig& splitter) {
  Context ctx;
  ctx.design = design;
  ctx.host_suffix = host_suffix;
  // The splitter only runs for SQ, but interning it unconditionally is free
  // and keeps the id a function of the full knob set.
  ctx.splitter = splitter;

  std::lock_guard<std::mutex> lock(contexts_mu_);
  for (size_t i = 0; i < contexts_.size(); ++i) {
    if (contexts_[i] == ctx) {
      return static_cast<uint32_t>(i) + 1;
    }
  }
  contexts_.push_back(std::move(ctx));
  return static_cast<uint32_t>(contexts_.size());
}

AnalysisPrefixCache::Query AnalysisPrefixCache::MakeQuery(const capture::CaptureTrace& trace,
                                                          uint32_t context) {
  Query q;
  q.fingerprint = FingerprintTrace(trace);
  q.context = context;
  return q;
}

AnalysisPrefixCache::Query AnalysisPrefixCache::MakeQuery(
    const capture::PacketColumns& columns, uint32_t context) {
  Query q;
  q.fingerprint = FingerprintColumns(columns);
  q.context = context;
  return q;
}

size_t AnalysisPrefixCache::ApproxBytes(const AnalysisPrefix& prefix) {
  size_t bytes = sizeof(Entry) + sizeof(AnalysisPrefix) +
                 prefix.groups.capacity() * sizeof(TrafficGroup) +
                 prefix.exchanges.capacity() * sizeof(EstimatedExchange);
  for (const TrafficGroup& g : prefix.groups) {
    bytes += g.requests.capacity() * sizeof(DetectedRequest);
  }
  return bytes;
}

std::shared_ptr<const AnalysisPrefix> AnalysisPrefixCache::Lookup(const Query& query) {
  if (EnvForcesOff()) {
    return nullptr;
  }
  CSI_SPAN("prefix_cache_lookup");
  CSI_TRACE_SPAN("prefix_cache_lookup", "cache");
  auto& shard = store_.ShardFor(query);
  std::shared_ptr<const AnalysisPrefix> hit;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(query);
    if (it != shard.index.end()) {
      it->second->referenced = true;
      hit = it->second->prefix;
    }
  }
  CSI_COUNTER_INC("csi_prefix_cache_lookups_total");
  if (hit != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    CSI_COUNTER_INC("csi_prefix_cache_hits_total");
    CSI_TRACE_INSTANT("prefix_cache", "cache", {"outcome", "hit"},
                      {"reason", "fingerprint_match"});
    return hit;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_prefix_cache_misses_total");
  CSI_TRACE_INSTANT("prefix_cache", "cache", {"outcome", "miss"}, {"reason", "absent"});
  return nullptr;
}

void AnalysisPrefixCache::Insert(const Query& query,
                                 std::shared_ptr<const AnalysisPrefix> prefix) {
  if (EnvForcesOff() || prefix == nullptr) {
    return;
  }
  Entry entry;
  entry.query = query;
  entry.bytes = ApproxBytes(*prefix);
  entry.prefix = std::move(prefix);
  // A replaced entry means a racing thread computed the same trace; values
  // are deterministic, so either copy serves — the store keeps the fresher.
  const int64_t evicted = store_.InsertAndEvict(std::move(entry));
  if (evicted < 0) {
    return;  // bigger than a whole shard's budget; refused
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  CSI_COUNTER_INC("csi_prefix_cache_inserts_total");
  if (evicted > 0) {
    evictions_.fetch_add(static_cast<uint64_t>(evicted), std::memory_order_relaxed);
    CSI_COUNTER_ADD("csi_prefix_cache_evictions_total", evicted);
  }
  // Per-shard drift between inserts is fine for a gauge; exact totals come
  // from stats().
  CSI_GAUGE_SET("csi_prefix_cache_bytes", static_cast<int64_t>(stats().bytes));
}

void AnalysisPrefixCache::Clear() { store_.Clear(); }

AnalysisPrefixCache::Stats AnalysisPrefixCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  store_.AccumulateShards(&s);
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    s.contexts = contexts_.size();
  }
  return s;
}

}  // namespace csi::infer
