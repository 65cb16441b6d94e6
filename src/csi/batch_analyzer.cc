#include "src/csi/batch_analyzer.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"
#include "src/csi/candidate_cache.h"

namespace csi::infer {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

void AttachCaches(const BatchConfig::Caches& budgets, InferenceConfig::Caches* caches) {
  constexpr size_t kMiB = 1024 * 1024;
  if (caches->prefix == nullptr && budgets.prefix.budget_mb > 0 &&
      !AnalysisPrefixCache::EnvForcesOff()) {
    caches->prefix = std::make_shared<AnalysisPrefixCache>(
        static_cast<size_t>(budgets.prefix.budget_mb) * kMiB);
  }
  if (caches->candidate == nullptr && budgets.candidate.budget_mb > 0 &&
      !GroupCandidateCache::EnvForcesOff()) {
    caches->candidate = std::make_shared<GroupCandidateCache>(
        static_cast<size_t>(budgets.candidate.budget_mb) * kMiB);
  }
  if (caches->result == nullptr && budgets.result.budget_mb > 0 &&
      !ResultCache::EnvForcesOff()) {
    caches->result = std::make_shared<ResultCache>(
        static_cast<size_t>(budgets.result.budget_mb) * kMiB);
  }
}

InferenceEngine BatchAnalyzer::MakeEngine(DbSnapshot snapshot, InferenceConfig config,
                                          const BatchConfig& batch) {
  AttachCaches(batch.caches, &config.caches);
  return InferenceEngine(std::move(snapshot), std::move(config));
}

// The calling thread runs analyses too (ThreadPool::ParallelFor), so the pool
// gets one worker fewer than the requested concurrency.
BatchAnalyzer::BatchAnalyzer(const media::Manifest* manifest, InferenceConfig config,
                             BatchConfig batch)
    : batch_(std::move(batch)),
      pool_(ResolveThreads(batch_.threads) - 1),
      // The shared database builds once, before any trace runs, so the batch
      // pool is idle and free to take the shard jobs.
      engine_(MakeEngine(DbSnapshot(std::make_shared<const ChunkDatabase>(
                             manifest, DbBuildOptions{&pool_, batch_.db_build_shards})),
                         std::move(config), batch_)) {}

BatchAnalyzer::BatchAnalyzer(DbSnapshot snapshot, InferenceConfig config, BatchConfig batch)
    : batch_(std::move(batch)),
      pool_(ResolveThreads(batch_.threads) - 1),
      engine_(MakeEngine(std::move(snapshot), std::move(config), batch_)) {}

std::vector<InferenceResult> BatchAnalyzer::AnalyzeAll(
    const std::vector<const capture::PacketColumns*>& columns,
    std::vector<double>* trace_seconds, std::vector<std::string>* trace_errors,
    std::vector<InferenceAudit>* audits) {
  const size_t total = columns.size();
  std::vector<InferenceResult> results(total);
  if (trace_seconds != nullptr) {
    trace_seconds->assign(total, 0.0);
  }
  if (trace_errors != nullptr) {
    trace_errors->assign(total, std::string());
  }
  if (audits != nullptr) {
    audits->assign(total, InferenceAudit{});
  }
  CSI_SPAN("batch_analyze_all", "batch", {"traces", static_cast<int64_t>(total)});
  std::atomic<size_t> completed{0};
  std::mutex progress_mu;
  // Analyzes trace i under its batch_trace span, whose one clock pair also
  // fills the caller's timing slot.
  const auto analyze_one = [&](int64_t i) {
    static telemetry::Histogram* const batch_trace = trace::StageHistogram("batch_trace");
    trace::Span span(batch_trace, "batch_trace", "batch", {{"index", i}},
                     trace_seconds != nullptr ? &(*trace_seconds)[static_cast<size_t>(i)]
                                              : nullptr);
    // A throwing trace must not take its siblings down with it: the slot
    // keeps a default result and the error is reported by index. Letting the
    // exception escape would make ParallelFor abort the remaining traces.
    try {
      InferenceAudit* const audit =
          audits != nullptr ? &(*audits)[static_cast<size_t>(i)] : nullptr;
      const capture::PacketColumns& one = *columns[static_cast<size_t>(i)];
      results[static_cast<size_t>(i)] = batch_.analyze_override
                                            ? batch_.analyze_override(one)
                                            : engine_.Analyze(one, {}, audit);
    } catch (const std::exception& e) {
      if (trace_errors != nullptr) {
        (*trace_errors)[static_cast<size_t>(i)] = e.what();
      }
      CSI_COUNTER_INC("csi_batch_trace_analyze_failures_total");
      trace::TraceSession::Global().DumpFlightRecord(
          "batch trace " + std::to_string(i), e.what());
    } catch (...) {
      if (trace_errors != nullptr) {
        (*trace_errors)[static_cast<size_t>(i)] = "unknown error";
      }
      CSI_COUNTER_INC("csi_batch_trace_analyze_failures_total");
      trace::TraceSession::Global().DumpFlightRecord(
          "batch trace " + std::to_string(i), "unknown error");
    }
  };
  pool_.ParallelFor(static_cast<int64_t>(total), [&](int64_t i) {
    analyze_one(i);
    CSI_COUNTER_INC("csi_batch_traces_total");
    const size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
    CSI_GAUGE_SET("csi_batch_traces_in_flight", total - done);
    if (batch_.progress && batch_.progress_every > 0 &&
        (done % batch_.progress_every == 0 || done == total)) {
      std::lock_guard<std::mutex> lock(progress_mu);
      batch_.progress(done, total);
    }
  });
  return results;
}

std::vector<InferenceResult> BatchAnalyzer::AnalyzeAll(
    const std::vector<capture::PacketColumns>& columns, std::vector<double>* trace_seconds,
    std::vector<std::string>* trace_errors, std::vector<InferenceAudit>* audits) {
  std::vector<const capture::PacketColumns*> pointers;
  pointers.reserve(columns.size());
  for (const capture::PacketColumns& c : columns) {
    pointers.push_back(&c);
  }
  return AnalyzeAll(pointers, trace_seconds, trace_errors, audits);
}

}  // namespace csi::infer
