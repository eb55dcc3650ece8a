// Video codec: GOP-structured encoder/decoder with three modes.
//
//   kRle      — lossless intra run-length coding; P-frames code the temporal
//               byte-difference against the previous frame (still lossless).
//   kDct      — lossy 8×8 DCT with quantisation; I-frames code pixels,
//               P-frames code the residual against the encoder's own
//               *reconstruction* (closed loop, so decoder drift is zero).
//   kRaw      — uncompressed; baseline for E3.
//
// Every encoded frame carries a header (mode, dimensions) and a CRC-32 of
// the payload so corruption is detected instead of mis-decoded.
#pragma once

#include <optional>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "video/frame.hpp"

namespace vgbl {

enum class CodecMode : u8 { kRaw = 0, kRle = 1, kDct = 2 };

const char* codec_mode_name(CodecMode mode);

struct CodecConfig {
  CodecMode mode = CodecMode::kDct;
  /// Keyframe interval: an I-frame every `gop_size` frames. 1 = all-intra.
  int gop_size = 12;
  /// DCT quantiser scale (1 fine .. 64 coarse); ignored by kRaw/kRle.
  /// The frame header stores this as one byte, so kDct encoding validates
  /// it to [1, 255] — out-of-range values are kInvalidArgument, never a
  /// silent truncation that would desync encoder and decoder tables.
  int quality = 16;
};

struct EncodedFrame {
  bool keyframe = false;
  Bytes data;
};

/// Stateful encoder: feed frames in presentation order.
class Encoder {
 public:
  explicit Encoder(CodecConfig config) : config_(config) {}

  [[nodiscard]] const CodecConfig& config() const { return config_; }

  /// Encodes the next frame. All frames of a stream must share dimensions
  /// and format; violations return kInvalidArgument.
  Result<EncodedFrame> encode(const Frame& frame);

  /// Forces the next frame to be a keyframe (used at segment boundaries so
  /// every scenario starts seekable).
  void request_keyframe() { force_keyframe_ = true; }

 private:
  EncodedFrame encode_intra(const Frame& frame);
  EncodedFrame encode_inter(const Frame& frame);

  CodecConfig config_;
  int frames_since_key_ = 0;
  bool force_keyframe_ = true;  // first frame is always a keyframe
  std::optional<Frame> reference_;  // decoder-identical reconstruction
  Size stream_size_{};
  std::optional<PixelFormat> stream_format_;
  Frame recon_scratch_;  ///< reused DCT closed-loop reconstruction target
  Bytes diff_scratch_;   ///< reused RLE temporal-residual buffer
  Bytes rle_scratch_;    ///< reused RLE output buffer
};

/// Stateful decoder: feed encoded frames in order; seeks restart at a
/// keyframe via `reset()`.
class Decoder {
 public:
  Decoder() = default;

  Result<Frame> decode(std::span<const u8> data);

  /// Decodes a run of consecutive frames, appending to `out`. Equivalent to
  /// calling decode() per frame, but prediction chains through the frames
  /// already appended to `out`, so the reference copy that per-frame decode
  /// pays on every frame happens once per batch. On error the valid prefix
  /// stays in `out` and the decoder reference is the last decoded frame,
  /// exactly as per-frame decoding would have left it.
  Status decode_batch(std::span<const std::span<const u8>> frames,
                      std::vector<Frame>& out);
  Status decode_batch(std::span<const EncodedFrame> frames,
                      std::vector<Frame>& out);

  /// Drops inter-frame prediction state (call before decoding from a
  /// keyframe that is not the stream start).
  void reset() { reference_.reset(); }

 private:
  std::optional<Frame> reference_;
  Bytes rle_scratch_;  ///< reused inter-RLE residual buffer
};

/// Convenience: encode a whole clip (keyframe forced at `segment_starts`).
struct EncodedStream {
  CodecConfig config;
  i32 width = 0;
  i32 height = 0;
  PixelFormat format = PixelFormat::kRgb24;
  int fps = 24;
  std::vector<EncodedFrame> frames;

  [[nodiscard]] u64 total_bytes() const {
    u64 n = 0;
    for (const auto& f : frames) n += f.data.size();
    return n;
  }
};

Result<EncodedStream> encode_stream(const std::vector<Frame>& frames,
                                    const CodecConfig& config, int fps = 24,
                                    const std::vector<int>& segment_starts = {});

/// Decodes the entire stream back to frames.
Result<std::vector<Frame>> decode_stream(const EncodedStream& stream);

}  // namespace vgbl
