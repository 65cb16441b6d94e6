// Common machinery behind the three cache tiers (prefix / candidate /
// result): the per-tier budget, the shared stats block and its summary
// formatter, and the sharded second-chance (clock) store that used to be
// copy-pasted between prefix_cache.cc and candidate_cache.cc. The CSI_CACHE
// env parser lives in src/common/cache_env.h so csi_common can read it too.
//
// Each tier keeps its own Query/Entry/Lookup semantics (the prefix cache has
// no revalidation, the candidate and result caches revalidate against the
// snapshot delta buffer); what lives here is everything that must behave
// identically across tiers so operators see one coherent cache surface.

#ifndef CSI_SRC_CSI_CACHE_COMMON_H_
#define CSI_SRC_CSI_CACHE_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/cache_env.h"

namespace csi::infer {

// Byte budget for one cache tier — the unit of BatchConfig::caches and of the
// `--cache-mb` tool flag. `budget_mb = 0` turns the tier off.
struct CacheOptions {
  int budget_mb = 0;

  friend bool operator==(const CacheOptions&, const CacheOptions&) = default;
};

// Unified stats block every cache tier reports. Tiers without a revalidation
// step simply leave `invalidations` at zero.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  // Entries dropped because a newer state's appends (or a compaction that hid
  // them) could have changed their output.
  uint64_t invalidations = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
  uint64_t contexts = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_ratio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// The one summary line per tier both csi_batch and csi_analyze print.
inline std::string FormatCacheSummary(const std::string& name, const CacheStats& stats) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s cache: %.1f%% hit ratio (%llu hit(s), %llu miss(es)), "
                "%llu invalidation(s), %llu eviction(s), %.1f MiB in %llu entries",
                name.c_str(), 100.0 * stats.hit_ratio(),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.invalidations),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<double>(stats.bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(stats.entries));
  return buffer;
}

namespace internal {

// Sharded second-chance (clock) store over a byte budget. Entry must expose
// `query`, `bytes` and `referenced` fields; Lookup-side semantics (plain hit,
// delta revalidation, eager invalidation drops) stay in each cache, which
// locks the shard it gets from ShardFor and walks index/entries directly.
template <typename Query, typename Entry, typename Hash>
class ShardedClockStore {
 public:
  struct Shard {
    mutable std::mutex mu;
    // Clock order: front is next eviction victim; a referenced victim gets
    // its bit cleared and one more trip to the back.
    std::list<Entry> entries;
    std::unordered_map<Query, typename std::list<Entry>::iterator, Hash> index;
    size_t bytes = 0;
  };

  ShardedClockStore(size_t budget_bytes, int shards) : budget_bytes_(budget_bytes) {
    const int n = std::max(shards, 1);
    shard_budget_ = budget_bytes_ / static_cast<size_t>(n);
    shards_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  ShardedClockStore(const ShardedClockStore&) = delete;
  ShardedClockStore& operator=(const ShardedClockStore&) = delete;

  Shard& ShardFor(const Query& query) {
    const size_t h = Hash{}(query);
    // The map consumes the low bits; pick the shard from the high ones.
    return *shards_[(h >> 17) % shards_.size()];
  }

  // Publishes `entry`, replacing any existing entry for its key, then runs
  // the clock sweep. Returns the number of entries evicted, or -1 when the
  // entry is bigger than a whole shard's budget and was refused.
  int64_t InsertAndEvict(Entry entry) {
    if (entry.bytes > shard_budget_) {
      return -1;  // would evict a whole shard and still not fit
    }
    Shard& shard = ShardFor(entry.query);
    int64_t evicted = 0;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(entry.query);
    if (it != shard.index.end()) {
      // Replace in place (a racing thread recomputed the same key, or a
      // fresher state supersedes a stale entry).
      shard.bytes -= it->second->bytes;
      shard.entries.erase(it->second);
      shard.index.erase(it);
    }
    shard.bytes += entry.bytes;
    const Query query = entry.query;
    shard.entries.push_back(std::move(entry));
    shard.index.emplace(query, std::prev(shard.entries.end()));
    while (shard.bytes > shard_budget_ && shard.entries.size() > 1) {
      Entry& victim = shard.entries.front();
      if (victim.referenced) {
        victim.referenced = false;
        shard.entries.splice(shard.entries.end(), shard.entries, shard.entries.begin());
        shard.index[victim.query] = std::prev(shard.entries.end());
        continue;
      }
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.query);
      shard.entries.pop_front();
      ++evicted;
    }
    return evicted;
  }

  // Drops every entry (caller-side stats survive).
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->entries.clear();
      shard->index.clear();
      shard->bytes = 0;
    }
  }

  // Adds the live per-shard byte/entry totals into `stats`.
  void AccumulateShards(CacheStats* stats) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      stats->bytes += shard->bytes;
      stats->entries += shard->entries.size();
    }
  }

  size_t budget_bytes() const { return budget_bytes_; }
  size_t shard_budget() const { return shard_budget_; }
  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  size_t budget_bytes_ = 0;
  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace internal

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_CACHE_COMMON_H_
