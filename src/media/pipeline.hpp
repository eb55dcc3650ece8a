// Decode pipeline. Inter-frame prediction forces sequential decode *within*
// a GOP, but GOPs are independent (each starts at a keyframe), so the
// pipeline parallelises at GOP granularity: a dispatcher splits the
// requested range into GOPs, pool workers decode them concurrently, and a
// reorder stage emits frames in presentation order. This is the unit
// benchmarked in E5 (FPS vs worker count).
#pragma once

#include <memory>
#include <vector>

#include "concurrency/bounded_queue.hpp"
#include "concurrency/thread_pool.hpp"
#include "util/result.hpp"
#include "video/container.hpp"

namespace vgbl {

/// [first, first+count) frame range that starts at a keyframe.
struct GopRange {
  int first = 0;
  int count = 0;
};

/// Splits `[first, first+count)` of the container into keyframe-aligned
/// ranges. The first range may begin before `first` (at its keyframe) —
/// `lead_in` frames must be decoded then discarded.
struct GopPlan {
  std::vector<GopRange> gops;
  int lead_in = 0;  // frames of gops[0] preceding the requested start
};

[[nodiscard]] GopPlan plan_gops(const VideoContainer& container, int first,
                                int count);

/// Decodes a frame range GOP-parallel. Frames return in presentation order.
Result<std::vector<Frame>> decode_range_parallel(const VideoContainer& container,
                                                 int first, int count,
                                                 ThreadPool& pool);

/// Streaming variant: a producer-side thread pool decodes GOPs ahead of the
/// consumer, which pops frames in order. Bounded queues provide
/// backpressure so memory stays proportional to the lookahead window.
class DecodePipeline {
 public:
  struct Options {
    /// Decode workers. 0 runs with no pool at all: GOPs decode
    /// synchronously on the consumer thread, on demand. That mode exists
    /// for massive simulated cohorts (district-scale DES runs keep 100k+
    /// sessions alive at once) where even one OS thread per session would
    /// exhaust the process thread limit.
    unsigned decode_threads = 2;
    /// Decoded frames buffered ahead of the consumer (pooled mode only;
    /// synchronous mode buffers exactly the consumer's GOP).
    size_t lookahead_frames = 32;
  };

  DecodePipeline(std::shared_ptr<const VideoContainer> container,
                 Options options);
  ~DecodePipeline();

  DecodePipeline(const DecodePipeline&) = delete;
  DecodePipeline& operator=(const DecodePipeline&) = delete;

  /// Begins decoding `[first, first+count)`. Any active run is cancelled.
  void start(int first, int count);

  /// Next frame in presentation order; nullopt at end-of-range or after
  /// `stop()`. Blocks while the decoder catches up.
  std::optional<Frame> next_frame();

  /// Cancels the active run and drains workers.
  void stop();

  struct Stats {
    u64 frames_emitted = 0;
    u64 gops_decoded = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Run;

  /// Decodes one GOP into `run`'s reorder buffers, publishing frame by
  /// frame (worker body in pooled mode, where the consumer can present the
  /// first frame while the rest still decodes).
  void decode_gop(const std::shared_ptr<Run>& run, size_t g);

  /// Batch variant for synchronous mode: decodes the whole GOP through
  /// Decoder::decode_batch and publishes it under one lock acquisition.
  void decode_gop_batch(const std::shared_ptr<Run>& run, size_t g);

  std::shared_ptr<const VideoContainer> container_;
  Options options_;
  std::unique_ptr<ThreadPool> pool_;  ///< null in synchronous mode
  std::shared_ptr<Run> run_;
  Stats stats_;
};

}  // namespace vgbl
