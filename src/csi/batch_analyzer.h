// Parallel batch-inference engine.
//
// The deployment-scale workload is many concurrent sessions of the *same*
// service (one manifest, one fingerprint database), not one capture at a
// time: a gateway tap produces a stream of per-device traces that all need
// Step 1 + Step 2 analysis. BatchAnalyzer owns one InferenceEngine — and
// therefore one immutable ChunkDatabase shared by every worker — and fans
// Analyze calls for N captures' PacketColumns out over the calling thread
// plus a fixed pool.
//
// Determinism: results land in the output vector by input index, and the
// per-trace analysis itself is scheduling-independent, so AnalyzeAll returns
// bit-identical results for any worker count (tested in
// batch_analyzer_test).

#ifndef CSI_SRC_CSI_BATCH_ANALYZER_H_
#define CSI_SRC_CSI_BATCH_ANALYZER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/csi/inference.h"

namespace csi::infer {

struct BatchConfig {
  // Analyses in flight at once: the calling thread plus threads - 1 pool
  // workers. 0 means hardware concurrency.
  int threads = 0;
  // Shard count for the ChunkDatabase the manifest constructor builds, fanned
  // over the batch pool; 0 = one shard per thread, 1 = serial build. The
  // index is byte-identical for every value (db_differential_test).
  int db_build_shards = 0;
  // Budgets for the shared caches this analyzer creates when the matching
  // InferenceConfig::caches pointer is null (an explicit pointer always
  // wins). One CacheOptions (cache_common.h) per tier:
  //  * prefix    — analysis-prefix cache (prefix_cache.h): repeats of the
  //    same trace bytes skip the per-packet stages. Snapshot-independent.
  //  * candidate — group-candidate cache (candidate_cache.h): repeated group
  //    signatures across traces and refreshes skip enumeration.
  //  * result    — whole-result cache (result_cache.h): a repeat of the same
  //    trace under the same (or a provably-equivalent) snapshot state skips
  //    the entire pipeline.
  // `budget_mb = 0` disables a tier, as does CSI_CACHE=<tier>:off. Results
  // are byte-identical with any subset enabled (prefix_cache_test,
  // candidate_cache_test, result_cache_test).
  struct Caches {
    CacheOptions prefix{/*budget_mb=*/32};
    CacheOptions candidate{/*budget_mb=*/64};
    CacheOptions result{/*budget_mb=*/64};
  };
  Caches caches;
  // Test seam / fault injection: when set, called instead of
  // InferenceEngine::Analyze for every capture of a batch.
  std::function<InferenceResult(const capture::PacketColumns&)> analyze_override;
  // Invoked with (completed, total) after every `progress_every`-th completed
  // trace and once at batch end. Called from worker threads, serialized by a
  // mutex — keep it cheap. Completion order is scheduling-dependent; only the
  // counts are meaningful.
  std::function<void(size_t completed, size_t total)> progress;
  size_t progress_every = 16;
};

// Fills every tier of `caches` that is still null with a fresh cache of the
// budget `budgets` names, unless that budget is 0 or CSI_CACHE forces the
// tier off. Caches already attached are left alone.
void AttachCaches(const BatchConfig::Caches& budgets, InferenceConfig::Caches* caches);

class BatchAnalyzer {
 public:
  // Builds the shared database from `manifest` on the batch pool, sharded
  // by batch.db_build_shards. `manifest` must outlive the analyzer.
  BatchAnalyzer(const media::Manifest* manifest, InferenceConfig config,
                BatchConfig batch = {});

  // Analyzes against an already-built snapshot (e.g.
  // LiveChunkDatabase::Acquire()). The snapshot pins its database version for
  // every trace of a batch; swap versions between batches with
  // UpdateSnapshot.
  BatchAnalyzer(DbSnapshot snapshot, InferenceConfig config, BatchConfig batch = {});

  // Re-points the shared engine at a newer database version. Must not be
  // called while AnalyzeAll is running (single-writer, quiesced contract —
  // same as InferenceEngine::UpdateSnapshot).
  void UpdateSnapshot(DbSnapshot snapshot) { engine_.UpdateSnapshot(std::move(snapshot)); }

  // Analyzes columns[i] into result[i]. Blocks until the whole batch is
  // done. If `trace_seconds` is non-null it is resized to the batch size and
  // slot i receives capture i's wall-clock analysis time (by-index slots, so
  // the output is deterministic even though scheduling is not).
  //
  // Fault isolation: a capture whose analysis throws does not poison its
  // siblings. The failed slot keeps a default-constructed InferenceResult,
  // the exception message lands in trace_errors[i] (when non-null; sibling
  // slots hold empty strings), and csi_batch_trace_analyze_failures_total is
  // incremented — the batch itself always completes. When a flight-recorder
  // trace session is active, the first failing capture also dumps the
  // per-thread event rings (TraceSession::DumpFlightRecord) before the batch
  // moves on.
  //
  // If `audits` is non-null it is resized to the batch size and slot i
  // receives capture i's inference audit record (see audit.h). Audits are
  // by-index like the other out-params, so they stay deterministic; slots of
  // failed captures keep whatever was recorded before the throw. The
  // analyze_override test seam bypasses the engine and leaves audits empty.
  std::vector<InferenceResult> AnalyzeAll(
      const std::vector<const capture::PacketColumns*>& columns,
      std::vector<double>* trace_seconds = nullptr,
      std::vector<std::string>* trace_errors = nullptr,
      std::vector<InferenceAudit>* audits = nullptr);
  std::vector<InferenceResult> AnalyzeAll(
      const std::vector<capture::PacketColumns>& columns,
      std::vector<double>* trace_seconds = nullptr,
      std::vector<std::string>* trace_errors = nullptr,
      std::vector<InferenceAudit>* audits = nullptr);

  const InferenceEngine& engine() const { return engine_; }
  // Analyses in flight at once: the pool workers plus the calling thread.
  int threads() const { return pool_.num_workers() + 1; }
  // The shared group-candidate cache (caller-provided or analyzer-created);
  // null when disabled. Stats reads are safe while a batch runs.
  const GroupCandidateCache* candidate_cache() const {
    return engine_.config().caches.candidate.get();
  }
  // The shared analysis-prefix cache (caller-provided or analyzer-created);
  // null when disabled. Stats reads are safe while a batch runs.
  const AnalysisPrefixCache* prefix_cache() const {
    return engine_.config().caches.prefix.get();
  }
  // The shared whole-result cache (caller-provided or analyzer-created); null
  // when disabled. Stats reads are safe while a batch runs.
  const ResultCache* result_cache() const { return engine_.config().caches.result.get(); }

 private:
  // Both constructors funnel through this: it attaches the batch-wide caches
  // to `config` and returns the engine by value (guaranteed elision), which
  // keeps the member-init list free of evaluation-order traps.
  static InferenceEngine MakeEngine(DbSnapshot snapshot, InferenceConfig config,
                                    const BatchConfig& batch);

  BatchConfig batch_;
  ThreadPool pool_;
  InferenceEngine engine_;
};

}  // namespace csi::infer

#endif  // CSI_SRC_CSI_BATCH_ANALYZER_H_
