#include "concurrency/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/wall_clock.hpp"
#include "util/thread_annotations.hpp"

namespace vgbl {

namespace {

struct PoolMetrics {
  obs::Counter& tasks;
  obs::Counter& idle_us;
  obs::Gauge& queue_depth;

  static PoolMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static PoolMetrics m{
        reg.counter("pool_tasks_total", "tasks executed by pool workers"),
        reg.counter("pool_idle_us_total",
                    "wall time workers spent waiting for work"),
        reg.gauge("pool_queue_depth",
                  "tasks queued but not yet started (approximate)")};
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) : queue_(1024) {
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& w : workers_) w.join();
}

void ThreadPool::note_submitted() {
  VGBL_GAUGE_ADD(PoolMetrics::get().queue_depth, 1);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::optional<std::function<void()>> task;
    if (obs::enabled()) {
      const i64 idle_start_us = obs::wall_now_us();
      task = queue_.pop();
      auto& m = PoolMetrics::get();
      VGBL_COUNT(m.idle_us,
                 static_cast<u64>(obs::wall_now_us() - idle_start_us));
      if (task) {
        VGBL_GAUGE_ADD(m.queue_depth, -1);
        VGBL_COUNT(m.tasks);
      }
    } else {
      task = queue_.pop();
    }
    if (!task) return;
    (*task)();
  }
}

void ThreadPool::parallel_for_chunks(i64 begin, i64 end,
                                     const std::function<void(i64, i64)>& fn,
                                     i64 grain) {
  if (begin >= end) return;
  const i64 total = end - begin;
  if (grain <= 0) {
    grain = std::max<i64>(1, total / (static_cast<i64>(thread_count()) * 4));
  }
  const i64 chunks = (total + grain - 1) / grain;
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }

  // The submitting thread steals chunks too, so progress is guaranteed even
  // if all workers are busy with unrelated tasks. Everything a helper
  // touches after its last chunk lives in this shared state, never on the
  // caller's stack: the caller may see remaining == 0 and return while the
  // helper that finished last is still about to notify, and helpers still
  // queued after the return find no chunk left.
  struct Chunks {
    std::atomic<i64> next{0};
    std::atomic<i64> remaining;
    Mutex done_mutex;
    std::condition_variable_any done_cv;
  };
  auto state = std::make_shared<Chunks>();
  state->remaining.store(chunks, std::memory_order_relaxed);

  auto run_chunks = [state, begin, end, grain, chunks, &fn]() {
    while (true) {
      const i64 c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return false;
      const i64 lo = begin + c * grain;
      const i64 hi = std::min(end, lo + grain);
      fn(lo, hi);
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        return true;
      }
    }
  };

  const i64 helpers =
      std::min<i64>(static_cast<i64>(thread_count()), chunks - 1);
  for (i64 i = 0; i < helpers; ++i) {
    const bool accepted = queue_.try_push([state, run_chunks] {
      if (run_chunks()) {
        MutexLock lock(state->done_mutex);
        state->done_cv.notify_all();
      }
    });
    if (accepted) note_submitted();
  }
  run_chunks();

  UniqueLock lock(state->done_mutex);
  while (state->remaining.load(std::memory_order_acquire) != 0) {
    state->done_cv.wait(lock);
  }
}

void ThreadPool::parallel_for(i64 begin, i64 end,
                              const std::function<void(i64)>& fn, i64 grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](i64 lo, i64 hi) {
        for (i64 i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace vgbl
