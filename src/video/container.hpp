// IVC ("Interactive Video Container") — the bundle-embeddable video file
// format: codec parameters, a per-frame index (offset/size/keyframe), and a
// segment table mapping scenario segments onto frame ranges. The segment
// table is what makes the container *interactive*: the runtime jumps
// between segments in response to player actions (paper §2.1).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "video/audio.hpp"
#include "video/codec.hpp"

namespace vgbl {

struct ContainerSegment {
  SegmentId id;
  std::string name;
  int first_frame = 0;
  int frame_count = 0;
};

struct FrameIndexEntry {
  u64 offset = 0;  // into the frame-data blob
  u32 size = 0;
  bool keyframe = false;
};

/// Serialises an encoded stream + segment table into one byte blob.
/// `audio` (optional) is ADPCM-compressed into a trailing track aligned to
/// the video timeline; pass nullptr for silent containers.
[[nodiscard]] Bytes mux_container(const EncodedStream& stream,
                                  const std::vector<ContainerSegment>& segments,
                                  const AudioBuffer* audio);
inline Bytes mux_container(const EncodedStream& stream,
                           const std::vector<ContainerSegment>& segments) {
  return mux_container(stream, segments, nullptr);
}

/// Parsed container: owns the muxed bytes; frame payloads are views into it.
class VideoContainer {
 public:
  /// Parses and validates (magic, version, CRC, index consistency).
  static Result<VideoContainer> parse(Bytes data);

  [[nodiscard]] i32 width() const { return width_; }
  [[nodiscard]] i32 height() const { return height_; }
  [[nodiscard]] int fps() const { return fps_; }
  [[nodiscard]] const CodecConfig& codec_config() const { return config_; }
  [[nodiscard]] PixelFormat pixel_format() const { return format_; }
  [[nodiscard]] int frame_count() const {
    return static_cast<int>(index_.size());
  }
  [[nodiscard]] const std::vector<ContainerSegment>& segments() const {
    return segments_;
  }
  [[nodiscard]] u64 total_bytes() const { return data_.size(); }

  /// The segment covering `frame`, if any.
  [[nodiscard]] const ContainerSegment* segment_at(int frame) const;
  [[nodiscard]] const ContainerSegment* segment_by_id(SegmentId id) const;
  [[nodiscard]] const ContainerSegment* segment_by_name(
      std::string_view name) const;

  /// Encoded payload of frame `i`.
  Result<std::span<const u8>> frame_data(int i) const;
  [[nodiscard]] bool is_keyframe(int i) const {
    return i >= 0 && i < frame_count() && index_[static_cast<size_t>(i)].keyframe;
  }

  /// Largest keyframe index ≤ i (every stream starts with one).
  [[nodiscard]] int previous_keyframe(int i) const;

  /// Decoded audio track (empty buffer when the container is silent).
  [[nodiscard]] const AudioBuffer& audio() const { return audio_; }
  [[nodiscard]] bool has_audio() const { return !audio_.empty(); }
  /// Sample index corresponding to video frame `i`.
  [[nodiscard]] size_t audio_sample_for_frame(int i) const {
    if (fps_ <= 0) return 0;
    return static_cast<size_t>(static_cast<i64>(i) * audio_.sample_rate / fps_);
  }

 private:
  Bytes data_;
  size_t blob_offset_ = 0;
  i32 width_ = 0;
  i32 height_ = 0;
  int fps_ = 24;
  CodecConfig config_;
  PixelFormat format_ = PixelFormat::kRgb24;
  std::vector<FrameIndexEntry> index_;
  std::vector<ContainerSegment> segments_;
  AudioBuffer audio_;
};

/// Random-access decoder over a container. Sequential reads decode one
/// frame; seeks decode forward from the nearest preceding keyframe. An
/// optional LRU cache of decoded frames accelerates segment re-entry
/// (ablated in E8).
class VideoReader {
 public:
  explicit VideoReader(VideoContainer container, size_t cache_capacity = 0);

  [[nodiscard]] const VideoContainer& container() const { return container_; }

  /// Decodes frame `i` (0-based presentation order).
  Result<Frame> read_frame(int i);

  /// First frame of a segment — the scenario-switch entry point.
  Result<Frame> read_segment_start(SegmentId id);

  /// Decode statistics for benchmarking.
  struct Stats {
    u64 frames_decoded = 0;  // actual decode operations (incl. catch-up)
    u64 cache_hits = 0;
    u64 seeks = 0;  // reads that required a keyframe restart
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Result<Frame> decode_at(int i);

  VideoContainer container_;
  Decoder decoder_;
  int next_sequential_ = 0;  // frame index the decoder state is poised at
  bool decoder_valid_ = false;

  // Tiny LRU: (frame index, decoded frame), most-recent at back.
  size_t cache_capacity_;
  std::vector<std::pair<int, Frame>> cache_;
  Stats stats_;
};

}  // namespace vgbl
