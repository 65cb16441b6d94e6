#include "perfbench/src/corpus.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/capture/pcap_io.h"
#include "src/common/rng.h"
#include "src/nettrace/bandwidth_trace.h"
#include "src/testbed/experiment.h"
#include "src/testbed/session.h"

namespace csibench {

namespace {

using csi::infer::DesignType;

constexpr csi::TimeUs kSessionDuration = 10 * 60 * csi::kUsPerSec;
// The Table-4 trace library: the same count and library seed as
// bench/bench_table4_inference.cc, so the corpus streams over the paper's
// cellular conditions rather than over seed-dependent ones.
constexpr int kTraceLibrarySize = 5;
constexpr uint64_t kTraceLibrarySeed = 0x7AB1E4;
const char* const kPolicies[] = {"hybrid", "rate-based", "buffer-based"};

// Why each workload exists, and the layer shares measured on it, are in
// perfbench/WORKLOADS.md. In short: nonmux_cold loads ingest and size
// estimation, sq_cold the group search, live_replay the cache tiers and the
// live database. Session counts trade steadiness across seeds against the
// length of a run; SQ session cost varies most from seed to seed, so SQ
// titles get the most sessions.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"nonmux_cold",
       {{DesignType::kCH, 0, 5}, {DesignType::kSH, 1, 5}, {DesignType::kCQ, 2, 5}},
       1,
       0},
      {"sq_cold",
       {{DesignType::kSQ, 1, 5},
        {DesignType::kSQ, 2, 5},
        {DesignType::kSQ, 3, 5},
        {DesignType::kSQ, 4, 5}},
       1,
       0},
      {"live_replay", {{DesignType::kCH, 0, 5}, {DesignType::kSQ, 3, 15}}, 4, 2},
  };
  return workloads;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

// Independent per-session seed: the run seed mixed with the session's place
// in the corpus, so adding a title never reshuffles the other sessions.
uint64_t SessionSeed(uint64_t seed, int title, int session) {
  csi::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(title) * 1000 +
               static_cast<uint64_t>(session));
  return rng.NextU64();
}

std::string GroundTruthTsv(const std::vector<csi::player::DownloadRecord>& downloads) {
  std::string out = "# kind\ttrack\tindex\trequest_us\tdone_us\tbytes\n";
  for (const auto& d : downloads) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s\t%d\t%d\t%lld\t%lld\t%lld\n",
                  d.chunk.type == csi::media::MediaType::kVideo ? "video" : "audio",
                  d.chunk.track, d.chunk.index, static_cast<long long>(d.request_time),
                  static_cast<long long>(d.done_time), static_cast<long long>(d.bytes));
    out += line;
  }
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::string ManifestPath(const std::string& dir, int title) {
  return dir + "/title" + std::to_string(title) + ".manifest";
}

std::string SessionPath(const std::string& dir, int title, int session,
                        const std::string& extension) {
  return dir + "/t" + std::to_string(title) + "_s" + std::to_string(session) + extension;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void GenerateCorpus(const WorkloadSpec& workload, uint64_t seed, const std::string& dir,
                    int shard, int shards) {
  csi::Rng trace_rng(kTraceLibrarySeed);
  const auto traces =
      csi::nettrace::CellularTraceLibrary(kTraceLibrarySize, kSessionDuration, trace_rng);
  int index = 0;
  for (size_t t = 0; t < workload.titles.size(); ++t) {
    const TitleSpec& title = workload.titles[t];
    const int title_id = static_cast<int>(t);
    const csi::media::Manifest manifest =
        csi::testbed::MakeAssetForDesign(title.design, title.genre, kSessionDuration);
    if (shard == 0) {
      WriteFile(ManifestPath(dir, title_id), manifest.Serialize());
    }
    for (int j = 0; j < title.sessions; ++j, ++index) {
      if (index % shards != shard) {
        continue;
      }
      csi::testbed::SessionConfig session;
      session.design = title.design;
      session.manifest = &manifest;
      session.downlink = traces[static_cast<size_t>(j % kTraceLibrarySize)];
      session.adaptation = kPolicies[(j + title_id) % 3];
      session.duration = kSessionDuration;
      session.seed = SessionSeed(seed, title_id, j);
      const csi::testbed::SessionResult result = csi::testbed::RunStreamingSession(session);

      const std::string pcap = SessionPath(dir, title_id, j, ".pcap");
      csi::capture::WritePcap(pcap, result.capture);
      WriteFile(SessionPath(dir, title_id, j, ".truth.tsv"), GroundTruthTsv(result.downloads));
      const std::string bytes = ReadFile(pcap);
      char meta[96];
      std::snprintf(meta, sizeof(meta), "%zu %zu %016llx\n", result.capture.size(),
                    bytes.size(),
                    static_cast<unsigned long long>(Fnv1a(bytes.data(), bytes.size())));
      WriteFile(SessionPath(dir, title_id, j, ".meta"), meta);
    }
  }
}

SessionMeta ReadSessionMeta(const std::string& path) {
  std::istringstream in(ReadFile(path));
  SessionMeta meta;
  in >> meta.packets >> meta.bytes >> std::hex >> meta.hash;
  if (!in) {
    throw std::runtime_error("malformed " + path);
  }
  return meta;
}

std::vector<csi::player::DownloadRecord> ReadGroundTruth(const std::string& path) {
  std::istringstream in(ReadFile(path));
  std::vector<csi::player::DownloadRecord> downloads;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string kind;
    csi::player::DownloadRecord d;
    fields >> kind >> d.chunk.track >> d.chunk.index >> d.request_time >> d.done_time >>
        d.bytes;
    if (!fields || (kind != "video" && kind != "audio")) {
      throw std::runtime_error("malformed ground truth line in " + path + ": " + line);
    }
    d.chunk.type = kind == "video" ? csi::media::MediaType::kVideo
                                   : csi::media::MediaType::kAudio;
    downloads.push_back(d);
  }
  return downloads;
}

}  // namespace csibench
