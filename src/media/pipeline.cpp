#include "media/pipeline.hpp"

#include <atomic>
#include <condition_variable>
#include <map>
#include <set>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace vgbl {

namespace {

struct MediaMetrics {
  obs::Counter& gops_decoded;
  obs::Counter& frames_decoded;
  obs::Histogram& gop_decode_ms;

  static MediaMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static MediaMetrics m{
        reg.counter("media_gops_decoded_total",
                    "GOPs decoded (batch and pipeline paths)"),
        reg.counter("media_frames_decoded_total", "frames decoded"),
        reg.histogram("media_gop_decode_ms",
                      obs::exponential_buckets(0.05, 2.0, 14),
                      "wall time to decode one GOP")};
    return m;
  }
};

}  // namespace

GopPlan plan_gops(const VideoContainer& container, int first, int count) {
  GopPlan plan;
  if (count <= 0 || first < 0 || first >= container.frame_count()) return plan;
  count = std::min(count, container.frame_count() - first);

  const int start_key = container.previous_keyframe(first);
  plan.lead_in = first - start_key;

  int pos = start_key;
  const int end = first + count;
  while (pos < end) {
    int next = pos + 1;
    while (next < end && !container.is_keyframe(next)) ++next;
    plan.gops.push_back({pos, next - pos});
    pos = next;
  }
  return plan;
}

Result<std::vector<Frame>> decode_gop(const VideoContainer& container,
                                      GopRange gop) {
  MediaMetrics& metrics = MediaMetrics::get();
  VGBL_SPAN("media.decode_gop");
  VGBL_TIMER(metrics.gop_decode_ms);
  // Whole-GOP batch decode: the prediction chain stays inside the output
  // vector, so the per-frame reference copy of the frame-at-a-time API is
  // paid once per GOP instead.
  std::vector<std::span<const u8>> datas;
  datas.reserve(static_cast<size_t>(gop.count));
  for (int i = gop.first; i < gop.first + gop.count; ++i) {
    auto data = container.frame_data(i);
    if (!data.ok()) return data.error();
    datas.push_back(data.value());
  }
  Decoder decoder;
  std::vector<Frame> frames;
  if (auto st = decoder.decode_batch(datas, frames); !st.ok()) {
    return st.error();
  }
  VGBL_COUNT(metrics.gops_decoded);
  VGBL_COUNT(metrics.frames_decoded, frames.size());
  return frames;
}

Result<std::vector<Frame>> decode_range_parallel(const VideoContainer& container,
                                                 int first, int count,
                                                 ThreadPool& pool) {
  const GopPlan plan = plan_gops(container, first, count);
  if (plan.gops.empty()) return std::vector<Frame>{};

  std::vector<Result<std::vector<Frame>>> results(
      plan.gops.size(), Result<std::vector<Frame>>(std::vector<Frame>{}));
  std::atomic<bool> failed{false};

  pool.parallel_for(0, static_cast<i64>(plan.gops.size()), [&](i64 g) {
    if (failed.load(std::memory_order_relaxed)) return;
    auto r = decode_gop(container, plan.gops[static_cast<size_t>(g)]);
    if (!r.ok()) failed.store(true, std::memory_order_relaxed);
    results[static_cast<size_t>(g)] = std::move(r);
  });

  std::vector<Frame> out;
  out.reserve(static_cast<size_t>(count));
  int skip = plan.lead_in;
  for (auto& r : results) {
    if (!r.ok()) return r.error();
    for (auto& f : r.value()) {
      if (skip > 0) {
        --skip;
        continue;
      }
      if (static_cast<int>(out.size()) < count) out.push_back(std::move(f));
    }
  }
  return out;
}

struct DecodePipeline::Run {
  Mutex mutex;
  std::condition_variable_any cv;
  GopPlan plan;  // immutable once start() publishes the run
  // Workers publish frames one at a time so the consumer can present the
  // first frame of a GOP while the rest is still decoding — this bounds
  // scenario-switch latency by one frame decode instead of one GOP.
  std::map<size_t, std::vector<Frame>> partial
      VGBL_GUARDED_BY(mutex);                      // gop -> frames so far
  std::set<size_t> done VGBL_GUARDED_BY(mutex);    // fully decoded gops
  std::set<size_t> failed VGBL_GUARDED_BY(mutex);  // decode error in gop
  size_t next_submit VGBL_GUARDED_BY(mutex) = 0;
  size_t in_flight VGBL_GUARDED_BY(mutex) = 0;
  std::atomic<bool> cancelled{false};

  // Consumer cursor.
  size_t current_gop VGBL_GUARDED_BY(mutex) = 0;
  size_t offset_in_gop VGBL_GUARDED_BY(mutex) = 0;
  int remaining VGBL_GUARDED_BY(mutex) = 0;  // frames owed to the consumer
};

DecodePipeline::DecodePipeline(std::shared_ptr<const VideoContainer> container,
                               Options options)
    : container_(std::move(container)),
      options_(options),
      pool_(options.decode_threads > 0
                ? std::make_unique<ThreadPool>(options.decode_threads)
                : nullptr) {}

DecodePipeline::~DecodePipeline() { stop(); }

void DecodePipeline::start(int first, int count) {
  stop();
  auto run = std::make_shared<Run>();
  run->plan = plan_gops(*container_, first, count);
  {
    // No worker can see the run before run_ is set, but the annotations
    // (correctly) have no way to know that — take the lock.
    MutexLock lock(run->mutex);
    run->remaining =
        std::min(count, std::max(0, container_->frame_count() - first));
    if (first < 0 || first >= container_->frame_count()) run->remaining = 0;
    run->offset_in_gop = static_cast<size_t>(run->plan.lead_in);
  }
  run_ = std::move(run);
}

void DecodePipeline::stop() {
  if (!run_) return;
  auto run = run_;
  run->cancelled.store(true);
  // Wait for in-flight decodes so their container reference stays valid.
  {
    UniqueLock lock(run->mutex);
    while (run->in_flight != 0) {
      run->cv.wait(lock);
    }
  }
  run_.reset();
}

std::optional<Frame> DecodePipeline::next_frame() {
  if (!run_) return std::nullopt;
  auto run = run_;
  UniqueLock lock(run->mutex);
  if (run->remaining <= 0 || run->current_gop >= run->plan.gops.size()) {
    return std::nullopt;
  }

  if (pool_ != nullptr) {
    // Keep the decode window full: submit GOPs up to a lookahead window
    // *relative to the consumer cursor*. (Gating on in_flight/done counts
    // is racy: the consumer can consume a GOP's last frame and erase its
    // bookkeeping before the worker's final done-mark runs, leaving a
    // stale entry that would block submission forever.)
    const size_t window =
        options_.decode_threads +
        std::max<size_t>(1,
                         options_.lookahead_frames /
                             std::max(1, container_->codec_config().gop_size));
    while (run->next_submit < run->plan.gops.size() &&
           run->next_submit < run->current_gop + window) {
      const size_t g = run->next_submit++;
      ++run->in_flight;
      // stop() waits for in_flight to drain before the run (or the
      // pipeline itself) goes away, so `this` stays valid in the worker.
      pool_->submit([this, run, g] {
        decode_gop(run, g);
        MutexLock inner(run->mutex);
        --run->in_flight;
        run->cv.notify_all();
      });
    }
  } else if (run->done.count(run->current_gop) == 0 &&
             run->failed.count(run->current_gop) == 0) {
    // Synchronous mode: decode the consumer's GOP on demand, right here.
    // No lookahead — memory stays bounded by one GOP per session no matter
    // how many sessions a simulation keeps alive. There is no concurrent
    // consumer to feed frame-by-frame, so the whole GOP goes through the
    // batch decode path and is published under one lock acquisition.
    const size_t g = run->current_gop;
    lock.unlock();
    decode_gop_batch(run, g);
    lock.lock();
  }

  // Wait for the next frame of the current GOP (not the whole GOP). An
  // explicit predicate loop instead of the lambda overload: the thread
  // safety analysis cannot see through the wait(lock, pred) indirection,
  // while a plain loop keeps every guarded access lexically under the lock.
  const size_t cur = run->current_gop;
  while (true) {
    if (run->cancelled.load() || run->failed.count(cur) > 0) break;
    auto probe = run->partial.find(cur);
    const size_t have =
        probe == run->partial.end() ? 0 : probe->second.size();
    if (have > run->offset_in_gop || run->done.count(cur) > 0) break;
    run->cv.wait(lock);
  }
  if (run->cancelled.load() || run->failed.count(cur)) return std::nullopt;
  auto it = run->partial.find(cur);
  const size_t have = it == run->partial.end() ? 0 : it->second.size();
  if (have <= run->offset_in_gop) {
    return std::nullopt;  // gop finished short (cancel/error race)
  }

  Frame frame = std::move(it->second[run->offset_in_gop]);
  ++run->offset_in_gop;
  --run->remaining;
  ++stats_.frames_emitted;

  if (run->offset_in_gop >=
      static_cast<size_t>(run->plan.gops[cur].count)) {
    run->partial.erase(cur);
    run->done.erase(cur);
    run->failed.erase(cur);
    ++run->current_gop;
    run->offset_in_gop = 0;
    ++stats_.gops_decoded;
  }
  return frame;
}

void DecodePipeline::decode_gop(const std::shared_ptr<Run>& run, size_t g) {
  MediaMetrics& metrics = MediaMetrics::get();
  VGBL_SPAN("media.decode_gop");
  VGBL_TIMER(metrics.gop_decode_ms);
  Decoder decoder;
  const GopRange gop = run->plan.gops[g];
  u64 decoded = 0;
  for (int i = gop.first; i < gop.first + gop.count; ++i) {
    if (run->cancelled.load(std::memory_order_relaxed)) break;
    auto data = container_->frame_data(i);
    Result<Frame> frame = data.ok() ? decoder.decode(data.value())
                                    : Result<Frame>(data.error());
    MutexLock inner(run->mutex);
    if (!frame.ok()) {
      run->failed.insert(g);
      run->cv.notify_all();
      break;
    }
    run->partial[g].push_back(std::move(frame.value()));
    ++decoded;
    run->cv.notify_all();
  }
  VGBL_COUNT(metrics.gops_decoded);
  VGBL_COUNT(metrics.frames_decoded, decoded);
  MutexLock inner(run->mutex);
  run->done.insert(g);
  run->cv.notify_all();
}

void DecodePipeline::decode_gop_batch(const std::shared_ptr<Run>& run,
                                      size_t g) {
  MediaMetrics& metrics = MediaMetrics::get();
  VGBL_SPAN("media.decode_gop");
  VGBL_TIMER(metrics.gop_decode_ms);
  const GopRange gop = run->plan.gops[g];
  Status st;
  std::vector<Frame> frames;
  if (!run->cancelled.load(std::memory_order_relaxed)) {
    std::vector<std::span<const u8>> datas;
    datas.reserve(static_cast<size_t>(gop.count));
    for (int i = gop.first; i < gop.first + gop.count; ++i) {
      auto data = container_->frame_data(i);
      if (!data.ok()) {
        st = data.error();
        break;
      }
      datas.push_back(data.value());
    }
    if (st.ok()) {
      Decoder decoder;
      st = decoder.decode_batch(datas, frames);
    }
  }
  VGBL_COUNT(metrics.gops_decoded);
  VGBL_COUNT(metrics.frames_decoded, frames.size());
  MutexLock inner(run->mutex);
  if (!st.ok()) run->failed.insert(g);
  if (!frames.empty()) run->partial[g] = std::move(frames);
  run->done.insert(g);
  run->cv.notify_all();
}

DecodePipeline::Stats DecodePipeline::stats() const { return stats_; }

}  // namespace vgbl
