// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a platform layer, recorded from the
// benchmark's own code around that call: name, start and end (steady-clock
// nanoseconds), the span it nested in, and a group id shared by every span
// of one student, session or course. Each thread appends to its own buffer
// (no locking on the hot path); buffers are merged when the run ends, so
// aggregation and the written-out span file see one list.
//
// Self time is a span's duration minus the part of it covered by its
// children. Attributing self time to layers by span name answers "where
// did the time go"; whatever the root spans cover that no layer span does
// is reported as unattributed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";   // string literal, compared by content
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;     // index into the same thread's buffer, -1: root
  uint64_t group = 0;      // student / session / course id
  uint32_t thread = 0;     // recording thread (merge order)

  [[nodiscard]] int64_t duration_ns() const { return end_ns - start_ns; }
};

int64_t now_ns();

/// One thread's span buffer. Not thread-safe; owned by a SpanLog.
class ThreadSpans {
 public:
  explicit ThreadSpans(uint32_t thread) : thread_(thread) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int32_t open(const char* name, uint64_t group);
  void close(int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Owns every thread's buffer. `local()` hands each calling thread its
/// own buffer (registered once under the mutex).
class SpanLog {
 public:
  SpanLog();
  ThreadSpans& local();

  /// All spans, thread buffers concatenated in registration order with
  /// parent indices rebased onto the merged vector. Call after every
  /// recording thread has finished.
  [[nodiscard]] std::vector<Span> merged() const;

 private:
  /// Process-unique, so a thread's cached buffer can never be mistaken
  /// for one of a later log that reuses this one's address.
  const uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// RAII span; a no-op when `log` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t group = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* spans_ = nullptr;
  int32_t index_ = -1;
};

/// Self time of every span: duration minus the union of its children's
/// intervals (children clipped to the parent). Same order as `spans`.
std::vector<int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per layer, plus the unattributed share: self time of
/// root spans divided by their total duration. A span's layer is its name
/// up to the first '.', so "media.frame_fetch" belongs to "media"; spans
/// named "run.*" stand for the workload itself and belong to no layer.
struct LayerLedger {
  std::map<std::string, int64_t> self_ns;
  int64_t root_ns = 0;
  int64_t unattributed_ns = 0;

  [[nodiscard]] double unattributed_share() const {
    return root_ns > 0 ? static_cast<double>(unattributed_ns) /
                             static_cast<double>(root_ns)
                       : 0.0;
  }
  [[nodiscard]] double share(const std::string& layer) const;
};
LayerLedger layer_ledger(const std::vector<Span>& spans);

/// Writes the spans as JSON ({"spans": [[name, start, end, parent, group,
/// thread], ...]}, times relative to the earliest start), at most
/// `max_spans` of them; returns false when the file cannot be written.
bool write_spans_json(const std::string& path, const std::vector<Span>& spans,
                      size_t max_spans);

}  // namespace e2ebench
