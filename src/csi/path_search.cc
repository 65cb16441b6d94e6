#include "src/csi/path_search.h"

#include <algorithm>
#include <functional>

#include "src/common/telemetry.h"
#include "src/common/tracing.h"

namespace csi::infer {

std::vector<SlotOptions> BuildSlotOptions(const std::vector<EstimatedExchange>& exchanges,
                                          const ChunkDatabase& db, double k,
                                          const DisplayConstraints& display) {
  CSI_SPAN("slot_options", "search");
  std::vector<SlotOptions> options;
  options.reserve(exchanges.size());
  for (const auto& ex : exchanges) {
    SlotOptions slot;
    slot.video_candidates = db.VideoCandidates(ex.estimated_size, k);
    if (!display.empty()) {
      std::erase_if(slot.video_candidates, [&display](const media::ChunkRef& c) {
        auto it = display.find(c.index);
        return it != display.end() && it->second != c.track;
      });
    }
    slot.audio_track = db.MatchingAudioTrack(ex.estimated_size, k);
    slot.other_ok = slot.video_candidates.empty() && slot.audio_track < 0;
    options.push_back(std::move(slot));
  }
  return options;
}

namespace {

struct NodeId {
  int layer = -1;
  int cand = -1;
};

class Searcher {
 public:
  Searcher(const std::vector<EstimatedExchange>& exchanges,
           const std::vector<SlotOptions>& options, const ChunkDatabase& db,
           const PathSearchConfig& config)
      : exchanges_(exchanges), options_(options), db_(db), config_(config) {
    const int n = static_cast<int>(options_.size());
    // suffix_skippable_[i]: every layer >= i is skippable.
    suffix_skippable_.assign(static_cast<size_t>(n) + 1, true);
    for (int i = n - 1; i >= 0; --i) {
      suffix_skippable_[static_cast<size_t>(i)] =
          suffix_skippable_[static_cast<size_t>(i) + 1] && options_[static_cast<size_t>(i)].skippable();
    }
    prefix_skippable_.assign(static_cast<size_t>(n) + 1, true);
    for (int i = 0; i < n; ++i) {
      prefix_skippable_[static_cast<size_t>(i) + 1] =
          prefix_skippable_[static_cast<size_t>(i)] && options_[static_cast<size_t>(i)].skippable();
    }
    // Index lookup per layer.
    by_index_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto& cands = options_[static_cast<size_t>(i)].video_candidates;
      for (int c = 0; c < static_cast<int>(cands.size()); ++c) {
        by_index_[static_cast<size_t>(i)][cands[static_cast<size_t>(c)].index].push_back(c);
      }
    }
    reach_memo_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      reach_memo_[static_cast<size_t>(i)].assign(
          options_[static_cast<size_t>(i)].video_candidates.size(), -1);
    }
  }

  InferenceResult Run() {
    CSI_SPAN("path_search", "search");
    InferenceResult result;
    result.exchanges = exchanges_;
    const int n = static_cast<int>(options_.size());
    if (n == 0) {
      return result;
    }
    std::vector<NodeId> path;
    // Start nodes: all layers reachable through a skippable prefix.
    for (int i = 0; i < n && !truncated_; ++i) {
      if (!prefix_skippable_[static_cast<size_t>(i)]) {
        break;
      }
      const auto& cands = options_[static_cast<size_t>(i)].video_candidates;
      for (int c = 0; c < static_cast<int>(cands.size()) && !truncated_; ++c) {
        if (CanReachSink(i, c)) {
          path.push_back(NodeId{i, c});
          Dfs(path);
          path.pop_back();
        }
      }
    }
    // Degenerate all-non-video interpretation, only if nothing else exists.
    if (sequences_.empty() && suffix_skippable_[0]) {
      sequences_.push_back({});
    }
    for (const auto& assignment : sequences_) {
      result.sequences.push_back(BuildSequence(assignment));
    }
    result.truncated = truncated_;
    CSI_COUNTER_ADD("csi_path_nodes_expanded_total", nodes_expanded_);
    if (truncated_) {
      CSI_COUNTER_INC("csi_path_truncated_total");
    }
    return result;
  }

 private:
  // Last layer a node at `layer` may connect forward to: the first
  // non-skippable layer after it (inclusive), or the final layer.
  int LastReachableLayer(int layer) const {
    const int n = static_cast<int>(options_.size());
    for (int j = layer + 1; j < n; ++j) {
      if (!options_[static_cast<size_t>(j)].skippable()) {
        return j;
      }
    }
    return n - 1;
  }

  bool CanReachSink(int layer, int cand) {
    int8_t& memo = reach_memo_[static_cast<size_t>(layer)][static_cast<size_t>(cand)];
    if (memo != -1) {
      return memo != 0;
    }
    memo = 0;
    const int n = static_cast<int>(options_.size());
    if (suffix_skippable_[static_cast<size_t>(layer) + 1]) {
      memo = 1;
      return true;
    }
    const int index =
        options_[static_cast<size_t>(layer)].video_candidates[static_cast<size_t>(cand)].index;
    const int last = LastReachableLayer(layer);
    for (int j = layer + 1; j <= last && j < n; ++j) {
      auto it = by_index_[static_cast<size_t>(j)].find(index + 1);
      if (it == by_index_[static_cast<size_t>(j)].end()) {
        continue;
      }
      for (int c2 : it->second) {
        if (CanReachSink(j, c2)) {
          memo = 1;
          return true;
        }
      }
    }
    return false;
  }

  void Dfs(std::vector<NodeId>& path) {
    if (truncated_) {
      return;
    }
    ++nodes_expanded_;
    const NodeId node = path.back();
    const int n = static_cast<int>(options_.size());
    // Terminal: the remaining layers are all skippable.
    if (suffix_skippable_[static_cast<size_t>(node.layer) + 1]) {
      if (static_cast<int>(sequences_.size()) >= config_.max_sequences) {
        truncated_ = true;
        return;
      }
      sequences_.push_back(path);
    }
    const int index = options_[static_cast<size_t>(node.layer)]
                          .video_candidates[static_cast<size_t>(node.cand)]
                          .index;
    const int last = LastReachableLayer(node.layer);
    for (int j = node.layer + 1; j <= last && j < n && !truncated_; ++j) {
      auto it = by_index_[static_cast<size_t>(j)].find(index + 1);
      if (it == by_index_[static_cast<size_t>(j)].end()) {
        continue;
      }
      for (int c2 : it->second) {
        if (!CanReachSink(j, c2)) {
          continue;
        }
        path.push_back(NodeId{j, c2});
        Dfs(path);
        path.pop_back();
        if (truncated_) {
          return;
        }
      }
    }
  }

  InferredSequence BuildSequence(const std::vector<NodeId>& assignment) const {
    InferredSequence seq;
    const int n = static_cast<int>(options_.size());
    seq.slots.resize(static_cast<size_t>(n));
    std::vector<int> video_at(static_cast<size_t>(n), -1);
    for (const NodeId& node : assignment) {
      video_at[static_cast<size_t>(node.layer)] = node.cand;
    }
    // Audio indexes grow contiguously too; anchor them at the sequence's
    // first video index (sessions start audio and video at the same playback
    // position).
    int audio_base = 0;
    if (!assignment.empty()) {
      audio_base = options_[static_cast<size_t>(assignment.front().layer)]
                       .video_candidates[static_cast<size_t>(assignment.front().cand)]
                       .index;
    }
    int audio_ordinal = 0;
    for (int i = 0; i < n; ++i) {
      InferredSlot& slot = seq.slots[static_cast<size_t>(i)];
      slot.request_time = exchanges_[static_cast<size_t>(i)].request_time;
      slot.done_time = exchanges_[static_cast<size_t>(i)].last_data_time;
      slot.estimated_size = exchanges_[static_cast<size_t>(i)].estimated_size;
      if (video_at[static_cast<size_t>(i)] >= 0) {
        slot.kind = SlotKind::kVideo;
        slot.chunk = options_[static_cast<size_t>(i)]
                         .video_candidates[static_cast<size_t>(video_at[static_cast<size_t>(i)])];
      } else if (options_[static_cast<size_t>(i)].audio_track >= 0) {
        slot.kind = SlotKind::kAudio;
        slot.chunk = media::ChunkRef{media::MediaType::kAudio,
                                     options_[static_cast<size_t>(i)].audio_track,
                                     audio_base + audio_ordinal};
        ++audio_ordinal;
      } else {
        slot.kind = SlotKind::kOther;
      }
    }
    return seq;
  }

  const std::vector<EstimatedExchange>& exchanges_;
  const std::vector<SlotOptions>& options_;
  const ChunkDatabase& db_;
  const PathSearchConfig& config_;

  std::vector<bool> suffix_skippable_;
  std::vector<bool> prefix_skippable_;
  std::vector<std::map<int, std::vector<int>>> by_index_;
  std::vector<std::vector<int8_t>> reach_memo_;
  std::vector<std::vector<NodeId>> sequences_;
  bool truncated_ = false;
  int64_t nodes_expanded_ = 0;
};

}  // namespace

InferenceResult SearchSequences(const std::vector<EstimatedExchange>& exchanges,
                                const std::vector<SlotOptions>& options,
                                const ChunkDatabase& db, const PathSearchConfig& config) {
  Searcher searcher(exchanges, options, db, config);
  return searcher.Run();
}

}  // namespace csi::infer
