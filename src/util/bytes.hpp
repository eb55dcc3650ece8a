// Byte-level serialization primitives: little-endian writer/reader over a
// growable buffer, with varint and length-prefixed string support. All
// container/bundle formats are built on these.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

using Bytes = std::vector<u8>;

/// Appends fixed-width little-endian scalars, varints and strings to an
/// owned buffer. Writing never fails; memory growth is amortised.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_i32(i32 v) { put_le(static_cast<u32>(v)); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v)); }

  void put_f64(f64 v) {
    u64 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  /// LEB128 unsigned varint: compact for small values (ids, counts).
  void put_varint(u64 v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<u8>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<u8>(v));
  }

  /// Zig-zag signed varint.
  void put_svarint(i64 v) {
    put_varint((static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63));
  }

  /// Length-prefixed (varint) UTF-8 string.
  void put_string(std::string_view s) {
    put_varint(s.size());
    put_raw(s.data(), s.size());
  }

  /// Length-prefixed (varint) byte blob.
  void put_blob(std::span<const u8> b) {
    put_varint(b.size());
    put_raw(b.data(), b.size());
  }

  void put_raw(const void* data, size_t n) {
    const auto* p = static_cast<const u8*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Overwrites 4 bytes at `offset` with `v` — used to back-patch section
  /// sizes after their content has been written.
  void patch_u32(size_t offset, u32 v) {
    for (int i = 0; i < 4; ++i) buf_[offset + i] = static_cast<u8>(v >> (8 * i));
  }

  [[nodiscard]] size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }

  Bytes buf_;
};

/// Bounds-checked reader over a byte span. Every accessor returns a Result;
/// once an error is hit the reader stays usable (subsequent reads also
/// fail), so callers may batch checks at the end of a record.
class ByteReader {
 public:
  explicit ByteReader(std::span<const u8> data) : data_(data) {}

  [[nodiscard]] size_t position() const { return pos_; }
  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  Result<u8> u8_() { return get_le<u8>(); }
  Result<u16> u16_() { return get_le<u16>(); }
  Result<u32> u32_() { return get_le<u32>(); }
  Result<u64> u64_() { return get_le<u64>(); }
  Result<i32> i32_() {
    auto r = get_le<u32>();
    if (!r.ok()) return r.error();
    return static_cast<i32>(r.value());
  }
  Result<i64> i64_() {
    auto r = get_le<u64>();
    if (!r.ok()) return r.error();
    return static_cast<i64>(r.value());
  }

  Result<f64> f64_() {
    auto r = u64_();
    if (!r.ok()) return r.error();
    f64 v;
    u64 bits = r.value();
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<u64> varint() {
    u64 v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) return truncated();
      const u8 byte = data_[pos_++];
      if (shift >= 63 && (byte & 0x7F) > 1) {
        return corrupt_data("varint overflows 64 bits");
      }
      v |= static_cast<u64>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  Result<i64> svarint() {
    auto r = varint();
    if (!r.ok()) return r.error();
    const u64 u = r.value();
    return static_cast<i64>((u >> 1) ^ (~(u & 1) + 1));
  }

  Result<std::string> string() {
    auto len = varint();
    if (!len.ok()) return len.error();
    if (len.value() > remaining()) return truncated();
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<size_t>(len.value()));
    pos_ += static_cast<size_t>(len.value());
    return s;
  }

  Result<Bytes> blob() {
    auto len = varint();
    if (!len.ok()) return len.error();
    if (len.value() > remaining()) return truncated();
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len.value()));
    pos_ += static_cast<size_t>(len.value());
    return b;
  }

  /// A non-owning view of the next `n` bytes, advancing past them.
  Result<std::span<const u8>> view(size_t n) {
    if (n > remaining()) return truncated();
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  Status skip(size_t n) {
    if (n > remaining()) return truncated();
    pos_ += n;
    return {};
  }

  Status seek(size_t absolute) {
    if (absolute > data_.size()) return truncated();
    pos_ = absolute;
    return {};
  }

 private:
  static Error truncated() { return corrupt_data("unexpected end of data"); }

  template <typename T>
  Result<T> get_le() {
    if (sizeof(T) > remaining()) return truncated();
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const u8> data_;
  size_t pos_ = 0;
};

}  // namespace vgbl
