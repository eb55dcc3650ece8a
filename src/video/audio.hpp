// Audio substrate: mono 16-bit PCM buffers, a deterministic per-scene
// ambience synthesiser (the stand-in for the soundtrack of the paper's
// filmed video), and an IMA ADPCM codec (4:1) for bundling. The container
// carries one optional audio track aligned to the video timeline; the
// player exposes clock-aligned sample windows (headless "playback").
#pragma once

#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

struct AudioBuffer {
  int sample_rate = 8000;  // mono
  std::vector<i16> samples;

  [[nodiscard]] bool empty() const { return samples.empty(); }
  [[nodiscard]] f64 duration_seconds() const {
    return sample_rate > 0
               ? static_cast<f64>(samples.size()) / sample_rate
               : 0.0;
  }

  bool operator==(const AudioBuffer&) const = default;
};

/// Deterministic ambience for one scene: a chord of low sine partials with
/// a slow tremolo, voiced from a hash of the scene name so each "place"
/// sounds distinct. `duration_samples` at `sample_rate`.
[[nodiscard]] AudioBuffer synthesize_ambience(const std::string& scene_name,
                                              size_t duration_samples,
                                              int sample_rate = 8000);

/// Concatenates per-scene ambiences to match a clip's scene durations.
/// (frames / fps seconds per scene.)
[[nodiscard]] AudioBuffer synthesize_clip_audio(
    const std::vector<std::pair<std::string, int>>& scene_frames, int fps,
    int sample_rate = 8000);

// --- IMA ADPCM (4 bits/sample, mono) ------------------------------------------

/// Encodes PCM to IMA ADPCM. Output layout: varint sample count, i16
/// initial predictor, u8 initial step index, then ceil(n/2) nibble bytes.
[[nodiscard]] Bytes adpcm_encode(const AudioBuffer& pcm);

/// Decodes an adpcm_encode stream. `sample_rate` is carried externally
/// (the container header).
Result<AudioBuffer> adpcm_decode(std::span<const u8> data, int sample_rate);

/// Signal-to-noise ratio of a decoded buffer vs the original, in dB.
[[nodiscard]] f64 audio_snr(const AudioBuffer& original,
                            const AudioBuffer& decoded);

}  // namespace vgbl
