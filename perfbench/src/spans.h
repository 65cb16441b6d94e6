// In-memory spans recorded by the benchmark around each public call it makes
// into the pipeline, written out at the end as the repo's Chrome trace-event
// JSON (csi::trace::ChromeTraceJson), so tools/check_trace.py validates them.
//
// Spans nest on one thread. The layer spans are leaves, so a layer's total
// is also its self time. A null recorder makes every Scope a no-op, so the
// traced and untraced passes run the same code.

#ifndef CSI_PERFBENCH_SRC_SPANS_H_
#define CSI_PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/tracing.h"

namespace csibench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;      // string literal
    const char* category = nullptr;  // string literal
    int64_t session = -1;            // -1: not tied to one session
    int parent = -1;                 // index into spans(), -1 for a root
    int64_t begin_ns = 0;
    int64_t end_ns = 0;

    double seconds() const { return static_cast<double>(end_ns - begin_ns) * 1e-9; }
  };

  // RAII span; `recorder` may be null.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, const char* category,
          int64_t session = -1)
        : recorder_(recorder),
          index_(recorder != nullptr ? recorder->Begin(name, category, session) : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) {
        recorder_->End(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  // All spans go to one trace lane per recorder; `lane` becomes the tid.
  explicit SpanRecorder(int32_t lane) : lane_(lane) {}

  // Index of the first root span named `name`, or -1.
  int FindRoot(const char* name) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0 && std::string(spans_[i].name) == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // Sum of the durations of the spans named `name` below `root`.
  double TotalSeconds(int root, const char* name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (std::string(s.name) == name && IsBelow(s, root)) {
        total += s.seconds();
      }
    }
    return total;
  }

  const std::vector<csi::trace::TraceEvent>& events() const { return events_; }

 private:
  int Begin(const char* name, const char* category, int64_t session) {
    const int index = static_cast<int>(spans_.size());
    Span span;
    span.name = name;
    span.category = category;
    span.session = session;
    span.parent = open_.empty() ? -1 : open_.back();
    span.begin_ns = Now();
    spans_.push_back(span);
    open_.push_back(index);
    Emit('B', spans_.back());
    return index;
  }

  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = Now();
    open_.pop_back();
    Emit('E', spans_[static_cast<size_t>(index)]);
  }

  void Emit(char phase, const Span& span) {
    csi::trace::TraceEvent event;
    event.name = span.name;
    event.category = span.category;
    event.phase = phase;
    event.tid = lane_;
    event.ts_ns = phase == 'B' ? span.begin_ns : span.end_ns;
    event.seq = events_.size();
    if (phase == 'B' && span.session >= 0) {
      event.num_args = 1;
      event.args[0] = csi::trace::TraceArg("session", span.session);
    }
    events_.push_back(event);
  }

  bool IsBelow(const Span& span, int root) const {
    for (int p = span.parent; p >= 0; p = spans_[static_cast<size_t>(p)].parent) {
      if (p == root) {
        return true;
      }
    }
    return false;
  }

  static int64_t Now() {
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
  }

  int32_t lane_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<csi::trace::TraceEvent> events_;
};

}  // namespace csibench

#endif  // CSI_PERFBENCH_SRC_SPANS_H_
