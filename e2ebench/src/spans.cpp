#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace e2ebench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t ThreadSpans::open(const char* name, uint64_t group) {
  Span s;
  s.name = name;
  s.group = group;
  s.thread = thread_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(index);
  // Stamp last so the buffer growth above is not inside the span.
  spans_.back().start_ns = now_ns();
  return index;
}

void ThreadSpans::close(int32_t index) {
  const int64_t end = now_ns();
  spans_[static_cast<size_t>(index)].end_ns = end;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

SpanLog::SpanLog() : id_([] {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}()) {}

ThreadSpans& SpanLog::local() {
  // One buffer per (log, thread); the last log a thread recorded into is
  // cached, which is the only one a benchmark phase uses.
  thread_local uint64_t cached_log = 0;
  thread_local ThreadSpans* cached = nullptr;
  if (cached_log == id_) return *cached;
  std::lock_guard<std::mutex> lock(mutex_);
  threads_.push_back(
      std::make_unique<ThreadSpans>(static_cast<uint32_t>(threads_.size())));
  cached_log = id_;
  cached = threads_.back().get();
  return *cached;
}

std::vector<Span> SpanLog::merged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& t : threads_) {
    const auto base = static_cast<int32_t>(out.size());
    for (Span s : t->spans()) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t group) {
  if (log == nullptr) return;
  spans_ = &log->local();
  index_ = spans_->open(name, group);
}

ScopedSpan::~ScopedSpan() {
  if (spans_ != nullptr) spans_->close(index_);
}

std::vector<int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    intervals.clear();
    for (int32_t c : children[i]) {
      const Span& s = spans[static_cast<size_t>(c)];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = p.duration_ns() - covered;
  }
  return self;
}

double LayerLedger::share(const std::string& layer) const {
  const auto it = self_ns.find(layer);
  if (it == self_ns.end() || root_ns <= 0) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(root_ns);
}

namespace {

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name)
                        : std::string(name, static_cast<size_t>(dot - name));
}

}  // namespace

LayerLedger layer_ledger(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_times_ns(spans);
  LayerLedger ledger;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    if (layer == "run") {
      if (spans[i].parent < 0) ledger.root_ns += spans[i].duration_ns();
      ledger.unattributed_ns += self[i];
    } else {
      ledger.self_ns[layer] += self[i];
    }
  }
  return ledger;
}

bool write_spans_json(const std::string& path, const std::vector<Span>& spans,
                      size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
  }
  const size_t n = std::min(spans.size(), max_spans);
  std::fprintf(f, "{\"total\": %zu, \"written\": %zu, \"fields\": "
               "[\"name\", \"start_ns\", \"end_ns\", \"parent\", \"group\", "
               "\"thread\"], \"spans\": [\n", spans.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "[\"%s\", %lld, %lld, %d, %llu, %u]%s\n", s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<unsigned long long>(s.group), s.thread,
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
