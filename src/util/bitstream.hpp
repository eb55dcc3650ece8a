// Bit-granular writer/reader used by the video codec's entropy stage.
// Bits are packed MSB-first within each byte so streams are byte-dump
// debuggable and platform-independent.
#pragma once

#include <bit>
#include <span>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

class BitWriter {
 public:
  /// Appends the low `count` bits of `bits` (MSB of the group first).
  /// count must be in [0, 57] so the accumulator cannot overflow.
  void put_bits(u64 bits, int count) {
    acc_ = (acc_ << count) | (bits & mask(count));
    filled_ += count;
    while (filled_ >= 8) {
      filled_ -= 8;
      buf_.push_back(static_cast<u8>(acc_ >> filled_));
    }
  }

  void put_bit(bool b) { put_bits(b ? 1 : 0, 1); }

  /// Exponential-Golomb-style unsigned code: efficient for the
  /// small-magnitude-dominated residuals the codec produces.
  void put_ue(u32 v) {
    const u64 x = static_cast<u64>(v) + 1;
    int len = 0;
    for (u64 t = x; t > 1; t >>= 1) ++len;
    put_bits(0, len);
    put_bits(x, len + 1);
  }

  /// Signed exp-Golomb via zig-zag mapping.
  void put_se(i32 v) {
    const u32 z = (static_cast<u32>(v) << 1) ^ static_cast<u32>(v >> 31);
    put_ue(z);
  }

  /// Flushes partial bits padded with zeros and returns the byte stream.
  [[nodiscard]] Bytes finish() && {
    if (filled_ > 0) {
      buf_.push_back(static_cast<u8>(acc_ << (8 - filled_)));
      filled_ = 0;
    }
    return std::move(buf_);
  }

  [[nodiscard]] size_t bit_count() const { return buf_.size() * 8 + filled_; }

 private:
  static constexpr u64 mask(int count) {
    return count >= 64 ? ~0ULL : (1ULL << count) - 1;
  }

  Bytes buf_;
  u64 acc_ = 0;
  int filled_ = 0;
};

/// Accumulator-based reader: bytes are pulled into a 64-bit MSB-first
/// window so `ue`/`se`/`bits` run on shifts and a count-leading-zeros
/// instead of one bounds-checked call per bit. This is the video codec's
/// entropy-decode hot loop (ISSUE 9); parsing semantics and error
/// behaviour are unchanged from the per-bit reader it replaced.
class BitReader {
 public:
  explicit BitReader(std::span<const u8> data) : data_(data) {}

  /// Reads `count` bits (MSB-first); fails on stream exhaustion.
  Result<u64> bits(int count) {
    if (count <= 0) return u64{0};
    if (count > 57) {  // split so the accumulator cannot overflow
      auto hi = bits(count - 32);
      if (!hi.ok()) return hi;
      auto lo = bits(32);
      if (!lo.ok()) return lo;
      return (hi.value() << 32) | lo.value();
    }
    refill();
    if (count > acc_bits_) return exhausted();
    acc_bits_ -= count;
    return (acc_ >> acc_bits_) & mask(count);
  }

  Result<bool> bit() {
    refill();
    if (acc_bits_ == 0) return exhausted();
    --acc_bits_;
    return ((acc_ >> acc_bits_) & 1) != 0;
  }

  Result<u32> ue() {
    refill();
    const int avail = acc_bits_;
    const u64 window = avail == 0 ? 0 : acc_ << (64 - avail);
    const int zeros = window == 0 ? avail : std::countl_zero(window);
    if (zeros > 32) return corrupt_data("exp-golomb prefix too long");
    // refill() tops up to > 56 bits whenever bytes remain, so a prefix
    // spanning the whole window means the stream ended mid-code.
    if (zeros >= avail) return exhausted();
    acc_bits_ -= zeros + 1;  // consume the zero prefix and its 1 terminator
    auto rest = bits(zeros);
    if (!rest.ok()) return rest.error();
    const u64 x = (1ULL << zeros) | rest.value();
    return static_cast<u32>(x - 1);
  }

  Result<i32> se() {
    auto z = ue();
    if (!z.ok()) return z.error();
    const u32 u = z.value();
    return static_cast<i32>((u >> 1) ^ (~(u & 1) + 1));
  }

  [[nodiscard]] size_t bit_position() const {
    return byte_pos_ * 8 - static_cast<size_t>(acc_bits_);
  }

 private:
  static constexpr u64 mask(int count) {
    return count >= 64 ? ~0ULL : (1ULL << count) - 1;
  }

  static Error exhausted() { return corrupt_data("bitstream exhausted"); }

  void refill() {
    while (acc_bits_ <= 56 && byte_pos_ < data_.size()) {
      acc_ = (acc_ << 8) | data_[byte_pos_++];
      acc_bits_ += 8;
    }
  }

  std::span<const u8> data_;
  size_t byte_pos_ = 0;  ///< bytes pulled into the accumulator so far
  u64 acc_ = 0;          ///< low acc_bits_ bits are unconsumed input
  int acc_bits_ = 0;
};

}  // namespace vgbl
