// csibench — the repo's end-to-end benchmark driver.
//
//   csibench gen --workload W --seed N --out DIR [--shard I --shards K]
//   csibench run --workload W --seed N --corpus DIR --seconds S --trace 0|1
//                [--trace-out FILE]
//
// `gen` writes a workload's seeded corpus (see corpus.h); several shards may
// run side by side. `run` analyzes it with the same public calls, in the same
// order, as tools/csi_batch.cc — Manifest::Parse, ChunkDatabase or
// LiveChunkDatabase construction, ReadPcap, PacketColumns::Build,
// BatchAnalyzer::AnalyzeAll, LiveChunkDatabase::ApplyRefresh — in the
// deployed configuration (default cache tiers, BatchConfig::threads = 0),
// and prints one JSON report as its last line of output.
//
// Every pass starts from fresh analyzers and caches:
//   * batch pass  — per title, every capture is ingested and the whole set
//     is handed to one AnalyzeAll on all cores; reports sessions/s.
//   * serial pass — a closed loop with one client calling
//     InferenceEngine::Analyze for one session at a time; reports sessions/s
//     and the per-session time from the start of ReadPcap to the result.
// With --trace 0 the run repeats the two passes for about --seconds and
// reports the end-to-end metrics (medians over passes). With --trace 1 it
// runs an untraced serial pass, a traced serial pass, a traced batch pass
// and a thread sweep, and reports the per-layer metrics.
//
// Output check, on every run: every pass must produce the same
// InferenceResult (compared by digest) for every (title, round, session),
// and the final round is scored against the generator's download log.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perfbench/src/corpus.h"
#include "perfbench/src/spans.h"
#include "src/capture/packet_columns.h"
#include "src/capture/pcap_io.h"
#include "src/common/tracing.h"
#include "src/csi/batch_analyzer.h"
#include "src/csi/candidate_cache.h"
#include "src/csi/chunk_database.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/live_database.h"
#include "src/csi/prefix_cache.h"
#include "src/csi/result_cache.h"
#include "src/csi/size_estimator.h"
#include "src/csi/splitter.h"
#include "src/media/manifest.h"
#include "src/testbed/metrics.h"
#include "tests/inference_digest.h"

namespace csibench {
namespace {

using csi::capture::PacketColumns;
using csi::infer::InferenceResult;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Accumulates wall time over Start/Stop intervals, so bookkeeping between
// them (digests, scoring, stage probes) stays out of a pass's wall time.
class Stopwatch {
 public:
  void Start() { start_ = Clock::now(); }
  void Stop() { total_ += SecondsSince(start_); }
  double seconds() const { return total_; }

 private:
  Clock::time_point start_;
  double total_ = 0.0;
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Corpus loaded for measurement (everything read before any timed region).

struct SessionInput {
  std::string pcap;
  std::vector<csi::player::DownloadRecord> truth;
  SessionMeta meta;
};

struct TitleInput {
  TitleSpec spec;
  std::string manifest_text;
  std::vector<SessionInput> sessions;
};

struct Corpus {
  const WorkloadSpec* workload = nullptr;
  std::vector<TitleInput> titles;
  int64_t sessions = 0;  // captures (not analyses)
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the per-session hashes
};

Corpus LoadCorpus(const WorkloadSpec& workload, const std::string& dir) {
  Corpus corpus;
  corpus.workload = &workload;
  for (size_t t = 0; t < workload.titles.size(); ++t) {
    TitleInput title;
    title.spec = workload.titles[t];
    title.manifest_text = ReadFile(ManifestPath(dir, static_cast<int>(t)));
    for (int j = 0; j < title.spec.sessions; ++j) {
      SessionInput session;
      session.pcap = SessionPath(dir, static_cast<int>(t), j, ".pcap");
      session.truth = ReadGroundTruth(SessionPath(dir, static_cast<int>(t), j, ".truth.tsv"));
      session.meta = ReadSessionMeta(SessionPath(dir, static_cast<int>(t), j, ".meta"));
      corpus.packets += session.meta.packets;
      corpus.bytes += session.meta.bytes;
      corpus.hash = Fnv1a(&session.meta.hash, sizeof(session.meta.hash), corpus.hash);
      ++corpus.sessions;
      title.sessions.push_back(std::move(session));
    }
    corpus.titles.push_back(std::move(title));
  }
  return corpus;
}

// Stable id of session j of title t, carried by its spans.
int64_t SessionId(const Corpus& corpus, size_t title, int session) {
  int64_t id = 0;
  for (size_t t = 0; t < title; ++t) {
    id += corpus.titles[t].spec.sessions;
  }
  return id + session;
}

// ---------------------------------------------------------------------------
// Set-up of one title for one pass: parse, database, analyzer.

// The csi_batch --follow-manifests schedule: start from the first half of
// the positions and grow back to the full manifest in `refreshes` appends.
struct FollowPlan {
  csi::media::Manifest start;
  std::vector<csi::infer::ManifestRefresh> refreshes;
};

FollowPlan BuildFollowPlan(const csi::media::Manifest& full, int refreshes) {
  FollowPlan plan;
  const int positions = full.num_positions();
  const int start_positions = std::max(1, positions / 2);
  const int tail = positions - start_positions;
  const int steps = std::min(refreshes, tail);
  plan.start = full;
  for (auto& track : plan.start.video_tracks) {
    track.chunks.resize(static_cast<size_t>(start_positions));
  }
  for (auto& track : plan.start.audio_tracks) {
    track.chunks.resize(std::min(track.chunks.size(), static_cast<size_t>(start_positions)));
  }
  for (int r = 0; r < steps; ++r) {
    const int lo = start_positions + tail * r / steps;
    const int hi = start_positions + tail * (r + 1) / steps;
    csi::infer::ManifestRefresh refresh;
    refresh.video_appends.resize(full.video_tracks.size());
    for (size_t t = 0; t < full.video_tracks.size(); ++t) {
      const auto& chunks = full.video_tracks[t].chunks;
      refresh.video_appends[t].assign(chunks.begin() + lo, chunks.begin() + hi);
    }
    plan.refreshes.push_back(std::move(refresh));
  }
  return plan;
}

struct SetupTimes {
  double parse_s = 0.0;
  double db_s = 0.0;
  double analyzer_s = 0.0;

  double total() const { return parse_s + db_s + analyzer_s; }
  void Add(const SetupTimes& other) {
    parse_s += other.parse_s;
    db_s += other.db_s;
    analyzer_s += other.analyzer_s;
  }
};

// Exactly one of `batch` / `engine` is set.
struct TitleState {
  std::unique_ptr<csi::media::Manifest> manifest;
  std::optional<FollowPlan> plan;
  std::unique_ptr<csi::infer::LiveChunkDatabase> live;
  std::unique_ptr<csi::infer::BatchAnalyzer> batch;
  std::unique_ptr<csi::infer::InferenceEngine> engine;
  size_t applied = 0;  // refreshes applied so far
  SetupTimes setup;
};

// `batch_threads` < 0 builds a serial InferenceEngine with fresh default-sized
// cache tiers; otherwise a BatchAnalyzer with that BatchConfig::threads.
std::unique_ptr<TitleState> SetUpTitle(const TitleInput& title, int refreshes,
                                       int batch_threads) {
  auto state = std::make_unique<TitleState>();
  auto t0 = Clock::now();
  state->manifest =
      std::make_unique<csi::media::Manifest>(csi::media::Manifest::Parse(title.manifest_text));
  state->setup.parse_s = SecondsSince(t0);
  // The replay schedule models the service publishing manifest updates; it
  // is workload scaffolding, not analyzer set-up, so it stays untimed.
  if (refreshes > 0) {
    state->plan = BuildFollowPlan(*state->manifest, refreshes);
  }

  t0 = Clock::now();
  csi::infer::DbSnapshot snapshot;
  if (state->plan.has_value()) {
    state->live = std::make_unique<csi::infer::LiveChunkDatabase>(state->plan->start);
    snapshot = state->live->Acquire();
  } else {
    snapshot = csi::infer::DbSnapshot(
        std::make_shared<const csi::infer::ChunkDatabase>(state->manifest.get()));
  }
  state->setup.db_s = SecondsSince(t0);

  t0 = Clock::now();
  csi::infer::InferenceConfig config;
  config.design = title.spec.design;
  if (state->plan.has_value()) {
    // As csi_batch: rank against the full manifest's size at every refresh.
    config.other_object_sizes.push_back(state->manifest->SerializedSize() +
                                        config.expected_fixed_overhead);
    config.host_suffix = state->manifest->host;
  }
  if (batch_threads >= 0) {
    csi::infer::BatchConfig batch;
    batch.threads = batch_threads;
    state->batch =
        std::make_unique<csi::infer::BatchAnalyzer>(std::move(snapshot), config, batch);
  } else {
    const csi::infer::BatchConfig defaults;
    constexpr size_t kMiB = 1024 * 1024;
    config.caches.prefix = std::make_shared<csi::infer::AnalysisPrefixCache>(
        static_cast<size_t>(defaults.caches.prefix.budget_mb) * kMiB);
    config.caches.candidate = std::make_shared<csi::infer::GroupCandidateCache>(
        static_cast<size_t>(defaults.caches.candidate.budget_mb) * kMiB);
    config.caches.result = std::make_shared<csi::infer::ResultCache>(
        static_cast<size_t>(defaults.caches.result.budget_mb) * kMiB);
    state->engine =
        std::make_unique<csi::infer::InferenceEngine>(std::move(snapshot), config);
  }
  state->setup.analyzer_s = SecondsSince(t0);
  return state;
}

// Applies the refreshes due before `round` (spread so the final round sees
// the full database) and re-points the analyzer. No-op for static titles.
void AdvanceRound(TitleState* state, int round, int rounds, SpanRecorder* spans) {
  if (!state->live) {
    return;
  }
  SpanRecorder::Scope span(spans, "refresh", "pipeline");
  const size_t target =
      state->plan->refreshes.size() * static_cast<size_t>(round + 1) / static_cast<size_t>(rounds);
  for (; state->applied < target; ++state->applied) {
    state->live->ApplyRefresh(state->plan->refreshes[state->applied]);
  }
  const csi::infer::DbSnapshot snapshot = state->live->Acquire();
  if (state->batch) {
    state->batch->UpdateSnapshot(snapshot);
  } else {
    state->engine->UpdateSnapshot(snapshot);
  }
}

// ---------------------------------------------------------------------------
// Passes.

struct CacheTally {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t invalidations = 0;
  uint64_t bytes = 0;

  void Add(const csi::infer::CacheStats& stats) {
    lookups += stats.lookups();
    hits += stats.hits;
    invalidations += stats.invalidations;
    bytes += stats.bytes;
  }
  double hit_ratio() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

// Work counts of the stage probes (see ProbeStages).
struct StageProbe {
  int64_t exchanges = 0;
  int64_t groups = 0;
};

struct PassStats {
  double wall_s = 0.0;  // first pcap byte to last result, bookkeeping excluded
  int64_t attempted = 0;
  int64_t failed = 0;
  // (title, round, session) -> result digest; failed sessions have none.
  // Digests (tests/inference_digest.h) let passes be compared without
  // keeping every result alive.
  std::map<std::tuple<size_t, int, int>, uint64_t> digests;
  std::vector<csi::testbed::AccuracyResult> final_scores;  // final round
  std::vector<std::string> errors;
  // Batch pass.
  double analyze_wall_s = 0.0;  // summed AnalyzeAll wall time
  double busy_s = 0.0;          // summed per-session analysis time
  double max_session_s = 0.0;
  // Serial pass.
  std::vector<double> session_s;
  csi::infer::InferenceAudit audit;  // summed work counts
  CacheTally result_cache, prefix_cache, candidate_cache;
  uint64_t publishes = 0;
  StageProbe probe;

  double sessions_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(attempted - failed) / wall_s : 0.0;
  }
};

void AddAudit(csi::infer::InferenceAudit* sum, const csi::infer::InferenceAudit& a) {
  sum->enumerations += a.enumerations;
  sum->candidates += a.candidates;
  sum->dfs_nodes_expanded += a.dfs_nodes_expanded;
  sum->chain_nodes += a.chain_nodes;
  sum->sequences += a.sequences;
}

void RecordResult(PassStats* stats, const TitleInput& title, size_t t, int round,
                  int rounds, int j, InferenceResult result) {
  if (round == rounds - 1) {
    stats->final_scores.push_back(csi::testbed::ScoreInference(
        result, title.sessions[static_cast<size_t>(j)].truth));
  }
  std::vector<InferenceResult> one;
  one.push_back(std::move(result));
  stats->digests[{t, round, j}] = csi::testutil::DigestResults(one);
}

// Separate calls of the cold stages on the session's dominant media flow,
// mirroring InferenceEngine's prefix computation; timed by "stage" spans
// outside the pass's wall time.
void ProbeStages(const PacketColumns& columns, const csi::infer::InferenceEngine& engine,
                 SpanRecorder* spans, int64_t id, StageProbe* probe) {
  const csi::infer::InferenceConfig& config = engine.config();
  std::vector<uint32_t> media;
  {
    SpanRecorder::Scope span(spans, "classify", "stage", id);
    media = csi::infer::ClassifyMediaFlowIds(columns, config.host_suffix);
  }
  if (media.empty()) {
    return;
  }
  uint32_t main_flow = media.front();
  for (const uint32_t f : media) {
    if (columns.flow_downlink_bytes(f) > columns.flow_downlink_bytes(main_flow)) {
      main_flow = f;
    }
  }
  const csi::capture::FlowView view = columns.flow(main_flow);
  if (config.design == csi::infer::DesignType::kSQ) {
    SpanRecorder::Scope span(spans, "split", "stage", id);
    probe->groups +=
        static_cast<int64_t>(csi::infer::SplitIntoGroups(view, config.splitter).size());
  } else {
    SpanRecorder::Scope span(spans, "estimate", "stage", id);
    for (const auto& ex : csi::infer::EstimateExchanges(view, csi::infer::IsQuic(config.design))) {
      probe->exchanges += ex.carries_sni ? 0 : 1;
    }
  }
}

// Reads one capture and transposes it, under "read" / "columns" spans.
PacketColumns Ingest(const std::string& path, SpanRecorder* spans, int64_t id) {
  csi::capture::CaptureTrace trace;
  {
    SpanRecorder::Scope span(spans, "read", "pipeline", id);
    trace = csi::capture::ReadPcap(path);
  }
  SpanRecorder::Scope span(spans, "columns", "pipeline", id);
  PacketColumns columns = PacketColumns::Build(trace);
  trace = {};
  return columns;
}

PassStats BatchPass(const Corpus& corpus, int threads, SpanRecorder* spans) {
  const WorkloadSpec& w = *corpus.workload;
  PassStats stats;
  std::vector<std::unique_ptr<TitleState>> states;
  for (const TitleInput& title : corpus.titles) {
    states.push_back(SetUpTitle(title, w.refreshes, threads));
  }
  SpanRecorder::Scope pass(spans, "batch_pass", "pass");
  Stopwatch watch;
  for (size_t t = 0; t < corpus.titles.size(); ++t) {
    const TitleInput& title = corpus.titles[t];
    TitleState* state = states[t].get();
    watch.Start();
    std::vector<PacketColumns> columns;
    std::vector<int> loaded;  // session index of columns[i]
    for (int j = 0; j < title.spec.sessions; ++j) {
      try {
        columns.push_back(
            Ingest(title.sessions[static_cast<size_t>(j)].pcap, spans, SessionId(corpus, t, j)));
        loaded.push_back(j);
      } catch (const std::exception& e) {
        stats.errors.push_back(std::string("load: ") + e.what());
      }
    }
    for (int r = 0; r < w.rounds; ++r) {
      AdvanceRound(state, r, w.rounds, spans);
      std::vector<double> seconds;
      std::vector<std::string> errors;
      const auto start = Clock::now();
      std::vector<InferenceResult> results;
      {
        SpanRecorder::Scope span(spans, "analyze_all", "pipeline");
        results = state->batch->AnalyzeAll(columns, &seconds, &errors);
      }
      stats.analyze_wall_s += SecondsSince(start);
      watch.Stop();
      stats.attempted += title.spec.sessions;
      stats.failed += title.spec.sessions - static_cast<int64_t>(loaded.size());
      for (size_t i = 0; i < results.size(); ++i) {
        stats.busy_s += seconds[i];
        stats.max_session_s = std::max(stats.max_session_s, seconds[i]);
        if (!errors[i].empty()) {
          ++stats.failed;
          stats.errors.push_back("analyze: " + errors[i]);
          continue;
        }
        RecordResult(&stats, title, t, r, w.rounds, loaded[i], std::move(results[i]));
      }
      watch.Start();
    }
    columns = {};
    watch.Stop();
    states[t].reset();  // analyzer teardown comes after the title's last result
  }
  stats.wall_s = watch.seconds();
  return stats;
}

// Fresh batch-analyzer set-ups of every title, one sample per rep, summed
// over titles. Set-up is about a millisecond per title, most of it manifest
// parsing, and on a shared VM that code slows by up to 1.8x for stretches of
// seconds to minutes, about twice as much as the analysis does. A run
// therefore takes its samples a few at a time between the sessions of its
// serial passes, spread over the whole run, and reports the fastest: the
// median of the samples moved by 40 % between two ten-run sets of the same
// code, far past any useful bound (see perfbench/WORKLOADS.md).
constexpr int kSetupRepsPerSession = 3;

void MeasureSetup(const Corpus& corpus, int reps, std::vector<SetupTimes>* samples) {
  for (int i = 0; i < reps; ++i) {
    SetupTimes sum;
    for (const TitleInput& title : corpus.titles) {
      sum.Add(SetUpTitle(title, corpus.workload->refreshes, /*batch_threads=*/0)->setup);
    }
    samples->push_back(sum);
  }
}

// `spans` non-null also runs the stage probes after every analysis that
// computed its per-packet prefix (a prefix-cache miss); `setup_samples`
// non-null takes set-up samples after every session. Both run outside the
// pass's wall time and the session times.
PassStats SerialPass(const Corpus& corpus, SpanRecorder* spans,
                     std::vector<SetupTimes>* setup_samples = nullptr) {
  const WorkloadSpec& w = *corpus.workload;
  PassStats stats;
  std::vector<std::unique_ptr<TitleState>> states;
  for (const TitleInput& title : corpus.titles) {
    states.push_back(SetUpTitle(title, w.refreshes, /*batch_threads=*/-1));
  }
  SpanRecorder::Scope pass(spans, "serial_pass", "pass");
  Stopwatch watch;
  for (size_t t = 0; t < corpus.titles.size(); ++t) {
    const TitleInput& title = corpus.titles[t];
    TitleState* state = states[t].get();
    watch.Start();
    const csi::infer::InferenceEngine& engine = *state->engine;
    const csi::infer::InferenceConfig& config = engine.config();
    // Live titles keep their columns across rounds; cold ones drop each
    // capture once analyzed. A session's time runs from the start of its
    // ReadPcap to its final-round result, counting only its own calls.
    std::vector<std::optional<PacketColumns>> columns(title.sessions.size());
    std::vector<double> session_s(title.sessions.size(), 0.0);
    for (int r = 0; r < w.rounds; ++r) {
      AdvanceRound(state, r, w.rounds, spans);
      for (int j = 0; j < title.spec.sessions; ++j) {
        const int64_t id = SessionId(corpus, t, j);
        auto& slot = columns[static_cast<size_t>(j)];
        const uint64_t prefix_misses = config.caches.prefix->stats().misses;
        csi::infer::InferenceAudit audit;
        std::optional<InferenceResult> result;
        std::string error;
        {
          SpanRecorder::Scope span(spans, "session", "pipeline", id);
          const auto start = Clock::now();
          try {
            if (!slot.has_value()) {
              slot = Ingest(title.sessions[static_cast<size_t>(j)].pcap, spans, id);
            }
            SpanRecorder::Scope analyze(spans, "analyze", "pipeline", id);
            result = engine.Analyze(*slot, {}, &audit);
          } catch (const std::exception& e) {
            error = e.what();
          }
          session_s[static_cast<size_t>(j)] += SecondsSince(start);
        }
        watch.Stop();
        ++stats.attempted;
        if (!result.has_value()) {
          ++stats.failed;
          stats.errors.push_back(error);
        } else {
          RecordResult(&stats, title, t, r, w.rounds, j, std::move(*result));
          AddAudit(&stats.audit, audit);
        }
        if (spans != nullptr && slot.has_value() &&
            config.caches.prefix->stats().misses > prefix_misses) {
          ProbeStages(*slot, engine, spans, id, &stats.probe);
        }
        if (setup_samples != nullptr) {
          MeasureSetup(corpus, kSetupRepsPerSession, setup_samples);
        }
        watch.Start();
        if (w.rounds == 1) {
          SpanRecorder::Scope span(spans, "release", "pipeline", id);
          slot.reset();
        }
      }
    }
    {
      SpanRecorder::Scope span(spans, "release", "pipeline");
      columns = {};
    }
    watch.Stop();
    stats.session_s.insert(stats.session_s.end(), session_s.begin(), session_s.end());
    stats.result_cache.Add(config.caches.result->stats());
    stats.prefix_cache.Add(config.caches.prefix->stats());
    stats.candidate_cache.Add(config.caches.candidate->stats());
    if (state->live) {
      state->live->WaitForCompaction();
      stats.publishes += state->live->epoch();
    }
    states[t].reset();
  }
  stats.wall_s = watch.seconds();
  return stats;
}

// ---------------------------------------------------------------------------
// Report.

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    metrics_ += (metrics_.empty() ? "" : ", ") + std::string("\"") + name +
                "\": {\"value\": " + buffer + ", \"unit\": \"" + unit + "\"}";
  }
  std::string metrics() const { return "{" + metrics_ + "}"; }

 private:
  std::string metrics_;
};

// Peak resident memory since the last ResetPeakRss (Linux VmHWM), or since
// the process started where the reset is unavailable.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  char line[256];
  long long kib = -1;
  while (status != nullptr && std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) {
      break;
    }
  }
  if (status != nullptr) {
    std::fclose(status);
  }
  if (kib < 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = usage.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

// Returns freed heap to the system first, so every pass's peak starts from
// the same baseline whatever earlier passes left cached in the allocator.
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// True when `other` matches `reference` on every (title, round, session).
bool SameResults(const PassStats& reference, const PassStats& other, std::string* why) {
  if (reference.digests == other.digests) {
    return true;
  }
  for (const auto& [key, digest] : reference.digests) {
    const auto it = other.digests.find(key);
    if (it == other.digests.end() || it->second != digest) {
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer), "title %zu round %d session %d differs",
                    std::get<0>(key), std::get<1>(key), std::get<2>(key));
      *why = buffer;
      return false;
    }
  }
  *why = "result sets differ in size";
  return false;
}

struct Accuracy {
  double exact_pct = 0.0;
  double mean_pct = 0.0;
  double truncated_pct = 0.0;
};

Accuracy Score(const std::vector<csi::testbed::AccuracyResult>& scores) {
  Accuracy a;
  if (scores.empty()) {
    return a;
  }
  for (const auto& s : scores) {
    a.exact_pct += s.found_ground_truth ? 1.0 : 0.0;
    a.mean_pct += s.best;
    a.truncated_pct += s.truncated ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(scores.size());
  a.exact_pct *= 100.0 / n;
  a.mean_pct *= 100.0 / n;
  a.truncated_pct *= 100.0 / n;
  return a;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct RunOptions {
  std::string workload;
  std::string corpus_dir;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// Shared tail of both run modes: output check + the JSON report line.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Absorb(const PassStats& reference, const PassStats& pass, const char* label) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& e : pass.errors) {
      problems.push_back(std::string(label) + ": " + e);
    }
    std::string why;
    if (&reference != &pass && !SameResults(reference, pass, &why)) {
      correct = false;
      problems.push_back(std::string(label) + " output differs from the serial pass: " + why);
    }
  }
};

void PrintReport(const RunOptions& options, const Corpus& corpus, Outcome outcome,
                 const Report& report, const std::string& extra) {
  if (outcome.failed > 0) {
    outcome.correct = false;
  }
  std::string problems = "[";
  for (size_t i = 0; i < outcome.problems.size(); ++i) {
    problems += (i ? ", " : "") + JsonString(outcome.problems[i]);
  }
  problems += "]";
  std::string titles = "[";
  for (size_t t = 0; t < corpus.titles.size(); ++t) {
    const TitleSpec& spec = corpus.titles[t].spec;
    titles += (t ? ", " : "") + std::string("{\"design\": \"") +
              csi::infer::DesignTypeName(spec.design) + "\", \"genre\": " +
              std::to_string(spec.genre) + ", \"sessions\": " + std::to_string(spec.sessions) +
              "}";
  }
  titles += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": %s, \"corpus\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"titles\": %s, \"sessions\": %" PRId64 ", \"packets\": %" PRIu64
      ", \"pcap_bytes\": %" PRIu64 ", \"pcap_fnv1a64\": \"%016" PRIx64
      "\"}, \"problems\": %s%s}\n",
      outcome.correct ? "true" : "false", outcome.attempted, outcome.failed,
      report.metrics().c_str(), JsonString(options.workload).c_str(), options.seed,
      titles.c_str(), corpus.sessions, corpus.packets, corpus.bytes, corpus.hash,
      problems.c_str(), extra.c_str());
}

// Accuracy floor on the final round: a fast pipeline that stopped recovering
// the downloads is a broken one, whatever its speed.
constexpr double kMinMeanAccuracyPct = 90.0;

void CheckAccuracy(const Accuracy& accuracy, Outcome* outcome) {
  if (accuracy.mean_pct < kMinMeanAccuracyPct) {
    outcome->correct = false;
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "mean best-output accuracy %.2f%% < %.0f%%",
                  accuracy.mean_pct, kMinMeanAccuracyPct);
    outcome->problems.push_back(buffer);
  }
}

int RunEndToEnd(const RunOptions& options, const Corpus& corpus) {
  // A repeat is one serial pass then one batch pass. Memory is the peak of
  // the first batch pass — the deployed all-cores shape — so it does not
  // depend on how many repeats fit in --seconds: later passes start from
  // allocator state the earlier ones left behind.
  std::vector<PassStats> batches, serials;
  std::vector<SetupTimes> setups;
  double peak_rss_mb = 0.0;
  size_t repeats = 1;
  while (serials.size() < repeats) {
    const auto repeat_start = Clock::now();
    serials.push_back(SerialPass(corpus, nullptr, &setups));
    if (serials.size() == 1) {
      ResetPeakRss();
    }
    batches.push_back(BatchPass(corpus, /*threads=*/0, nullptr));
    if (serials.size() == 1) {
      peak_rss_mb = PeakRssMb();
      repeats = std::max<size_t>(
          1, static_cast<size_t>(std::lround(options.seconds / SecondsSince(repeat_start))));
    }
  }

  Outcome outcome;
  std::vector<double> batch_rate, serial_rate, session_s;
  for (size_t i = 0; i < batches.size(); ++i) {
    outcome.Absorb(serials.front(), batches[i], "batch pass");
    outcome.Absorb(serials.front(), serials[i], "serial pass");
    batch_rate.push_back(batches[i].sessions_per_s());
    serial_rate.push_back(serials[i].sessions_per_s());
    session_s.insert(session_s.end(), serials[i].session_s.begin(),
                     serials[i].session_s.end());
  }
  double setup_s = setups.front().total();
  for (const SetupTimes& s : setups) {
    setup_s = std::min(setup_s, s.total());
  }
  const Accuracy accuracy = Score(serials.front().final_scores);
  CheckAccuracy(accuracy, &outcome);

  Report report;
  report.Metric("sessions_per_s", Median(batch_rate), "1/s");
  report.Metric("serial_sessions_per_s", Median(serial_rate), "1/s");
  report.Metric("session_p50_s", Median(session_s), "s");
  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", peak_rss_mb, "MB");
  report.Metric("accuracy_exact_pct", accuracy.exact_pct, "%");
  report.Metric("accuracy_mean_pct", accuracy.mean_pct, "%");
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                ", \"passes\": %zu, \"session_samples\": %zu, \"truncated_pct\": %.4g",
                batches.size(), session_s.size(), accuracy.truncated_pct);
  PrintReport(options, corpus, outcome, report, extra);
  return 0;
}

int RunTraced(const RunOptions& options, const Corpus& corpus) {
  SpanRecorder serial_spans(/*lane=*/1);
  SpanRecorder batch_spans(/*lane=*/2);
  // Both serial passes take set-up samples, so that they differ only in
  // the spans.
  std::vector<SetupTimes> setups;
  const PassStats untraced = SerialPass(corpus, nullptr, &setups);
  const PassStats serial = SerialPass(corpus, &serial_spans, &setups);
  const PassStats batch = BatchPass(corpus, /*threads=*/0, &batch_spans);
  const PassStats w1 = BatchPass(corpus, 1, nullptr);
  const PassStats w2 = BatchPass(corpus, 2, nullptr);
  double db_setup_s = setups.front().db_s;
  for (const SetupTimes& s : setups) {
    db_setup_s = std::min(db_setup_s, s.db_s);
  }

  Outcome outcome;
  outcome.Absorb(serial, serial, "traced serial pass");
  outcome.Absorb(serial, untraced, "serial pass");
  outcome.Absorb(serial, batch, "batch pass");
  outcome.Absorb(serial, w1, "batch pass w1");
  outcome.Absorb(serial, w2, "batch pass w2");
  const Accuracy accuracy = Score(serial.final_scores);
  CheckAccuracy(accuracy, &outcome);

  // Layer times from the traced serial pass. The layer (leaf) spans must
  // account for the pass's wall time: time inside a session that no layer
  // span covers fails the check.
  const int root = serial_spans.FindRoot("serial_pass");
  const double read_s = serial_spans.TotalSeconds(root, "read");
  const double columns_s = serial_spans.TotalSeconds(root, "columns");
  const double analyze_s = serial_spans.TotalSeconds(root, "analyze");
  const double refresh_s = serial_spans.TotalSeconds(root, "refresh");
  const double release_s = serial_spans.TotalSeconds(root, "release");
  const double coverage_pct = 100.0 * (read_s + columns_s + analyze_s + refresh_s + release_s) /
                              std::max(serial.wall_s, 1e-9);
  constexpr double kCoverageTolerancePct = 3.0;
  if (std::abs(coverage_pct - 100.0) > kCoverageTolerancePct) {
    outcome.correct = false;
    outcome.problems.push_back("layer spans cover " + std::to_string(coverage_pct) +
                               "% of the traced serial pass");
  }
  const double classify_s = serial_spans.TotalSeconds(root, "classify");
  const double estimate_s = serial_spans.TotalSeconds(root, "estimate");
  const double split_s = serial_spans.TotalSeconds(root, "split");
  // Every capture is read exactly once per serial pass.
  const double packets = static_cast<double>(corpus.packets);
  const auto mean_concurrency = [](const PassStats& p) {
    return p.analyze_wall_s > 0.0 ? p.busy_s / p.analyze_wall_s : 0.0;
  };
  const double failed_pct = 100.0 * static_cast<double>(serial.failed) /
                            std::max(1.0, static_cast<double>(serial.attempted));

  Report report;
  report.Metric("capture.read_s", read_s, "s");
  report.Metric("capture.read_mb_per_s",
                static_cast<double>(corpus.bytes) / 1e6 / std::max(read_s, 1e-9),
                "MB/s");
  report.Metric("capture.columns_s", columns_s, "s");
  report.Metric("capture.packets", packets, "count");
  report.Metric("capture.ns_per_packet",
                1e9 * (read_s + columns_s) / std::max(1.0, packets),
                "ns");
  report.Metric("db.setup_s", db_setup_s, "s");
  report.Metric("db.refresh_s", refresh_s, "s");
  report.Metric("db.publishes", static_cast<double>(serial.publishes), "count");
  report.Metric("analyze.s", analyze_s, "s");
  report.Metric("classify.s", classify_s, "s");
  report.Metric("estimate.s", estimate_s, "s");
  report.Metric("estimate.exchanges", static_cast<double>(serial.probe.exchanges), "count");
  report.Metric("split.s", split_s, "s");
  report.Metric("split.groups", static_cast<double>(serial.probe.groups), "count");
  report.Metric("search.s", analyze_s - classify_s - estimate_s - split_s, "s");
  report.Metric("search.enumerations", static_cast<double>(serial.audit.enumerations), "count");
  report.Metric("search.candidates", static_cast<double>(serial.audit.candidates), "count");
  report.Metric("search.dfs_nodes", static_cast<double>(serial.audit.dfs_nodes_expanded), "count");
  report.Metric("search.chain_nodes", static_cast<double>(serial.audit.chain_nodes), "count");
  report.Metric("search.sequences", static_cast<double>(serial.audit.sequences), "count");
  report.Metric("search.truncated_pct", accuracy.truncated_pct, "%");
  report.Metric("cache.result.lookups", static_cast<double>(serial.result_cache.lookups), "count");
  report.Metric("cache.result.hit_ratio", serial.result_cache.hit_ratio(), "ratio");
  report.Metric("cache.result.invalidations",
                static_cast<double>(serial.result_cache.invalidations), "count");
  report.Metric("cache.prefix.lookups", static_cast<double>(serial.prefix_cache.lookups), "count");
  report.Metric("cache.prefix.hit_ratio", serial.prefix_cache.hit_ratio(), "ratio");
  report.Metric("cache.candidate.lookups", static_cast<double>(serial.candidate_cache.lookups),
                "count");
  report.Metric("cache.candidate.hit_ratio", serial.candidate_cache.hit_ratio(), "ratio");
  report.Metric("cache.candidate.invalidations",
                static_cast<double>(serial.candidate_cache.invalidations), "count");
  report.Metric("cache.bytes",
                static_cast<double>(serial.result_cache.bytes + serial.prefix_cache.bytes +
                                    serial.candidate_cache.bytes),
                "bytes");
  report.Metric("batch.wall_s", batch.analyze_wall_s, "s");
  report.Metric("batch.mean_concurrency", mean_concurrency(batch), "count");
  report.Metric("batch.max_session_s", batch.max_session_s, "s");
  report.Metric("batch.sessions_per_s_w1", w1.sessions_per_s(), "1/s");
  report.Metric("batch.sessions_per_s_w2", w2.sessions_per_s(), "1/s");
  report.Metric("batch.sessions_per_s_wn", batch.sessions_per_s(), "1/s");
  report.Metric("batch.mean_concurrency_w1", mean_concurrency(w1), "count");
  report.Metric("batch.mean_concurrency_w2", mean_concurrency(w2), "count");
  report.Metric("batch.mean_concurrency_wn", mean_concurrency(batch), "count");
  report.Metric("serial.wall_s", serial.wall_s, "s");
  report.Metric("session.samples", static_cast<double>(serial.session_s.size()), "count");
  report.Metric("session.failed_pct", failed_pct, "%");
  report.Metric("trace.overhead_pct", 100.0 * (serial.wall_s - untraced.wall_s) / untraced.wall_s,
                "%");
  report.Metric("trace.coverage_pct", coverage_pct, "%");

  std::vector<csi::trace::TraceEvent> events = serial_spans.events();
  events.insert(events.end(), batch_spans.events().begin(), batch_spans.events().end());
  if (!options.trace_out.empty()) {
    std::FILE* f = std::fopen(options.trace_out.c_str(), "wb");
    const std::string json = csi::trace::ChromeTraceJson(events);
    if (f == nullptr || std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "csibench: cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
  }
  char extra[96];
  std::snprintf(extra, sizeof(extra), ", \"threads_n\": %u",
                std::thread::hardware_concurrency());
  PrintReport(options, corpus, outcome, report, extra);
  return 0;
}

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: csibench gen --workload W --seed N --out DIR [--shard I --shards K]\n"
               "       csibench run --workload W --seed N --corpus DIR --seconds S --trace 0|1\n"
               "                    [--trace-out FILE]\n",
               error);
  std::exit(2);
}

}  // namespace
}  // namespace csibench

int main(int argc, char** argv) {
  using namespace csibench;
  if (argc < 2) {
    Usage("missing command");
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0) {
      Usage("flags take the form --name value");
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  const auto flag = [&](const char* name, const char* fallback) -> std::string {
    const auto it = flags.find(name);
    if (it != flags.end()) {
      return it->second;
    }
    if (fallback == nullptr) {
      Usage((std::string("missing --") + name).c_str());
    }
    return fallback;
  };
  const WorkloadSpec* workload = FindWorkload(flag("workload", nullptr));
  if (workload == nullptr) {
    Usage("unknown workload");
  }
  const uint64_t seed = std::strtoull(flag("seed", nullptr).c_str(), nullptr, 10);
  try {
    if (command == "gen") {
      GenerateCorpus(*workload, seed, flag("out", nullptr), std::stoi(flag("shard", "0")),
                     std::max(1, std::stoi(flag("shards", "1"))));
      return 0;
    }
    if (command == "run") {
      RunOptions options;
      options.workload = workload->name;
      options.seed = seed;
      options.corpus_dir = flag("corpus", nullptr);
      options.seconds = std::stod(flag("seconds", "10"));
      options.trace = flag("trace", "0") == "1";
      options.trace_out = flag("trace-out", "");
      const Corpus corpus = LoadCorpus(*workload, options.corpus_dir);
      return options.trace ? RunTraced(options, corpus) : RunEndToEnd(options, corpus);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csibench: %s\n", e.what());
    return 1;
  }
  Usage("unknown command");
}
