#include "object/sprite.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace vgbl {

Sprite::Sprite(i32 width, i32 height)
    : width_(std::max(0, width)),
      height_(std::max(0, height)),
      rgba_(static_cast<size_t>(width_) * static_cast<size_t>(height_) * 4, 0) {}

Color Sprite::color_at(i32 x, i32 y) const {
  const size_t i = index(x, y);
  return {rgba_[i], rgba_[i + 1], rgba_[i + 2]};
}

u8 Sprite::alpha_at(i32 x, i32 y) const { return rgba_[index(x, y) + 3]; }

void Sprite::set(i32 x, i32 y, Color c, u8 alpha) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  const size_t i = index(x, y);
  rgba_[i] = c.r;
  rgba_[i + 1] = c.g;
  rgba_[i + 2] = c.b;
  rgba_[i + 3] = alpha;
}

void Sprite::draw(Frame& frame, Point at) const {
  draw_scaled(frame, {at.x, at.y, width_, height_});
}

void Sprite::draw_scaled(Frame& frame, Rect target) const {
  if (empty() || target.empty()) return;
  const Rect clip = target.intersection(frame.bounds());
  for (i32 y = clip.y; y < clip.bottom(); ++y) {
    const i32 sy = static_cast<i32>(
        static_cast<i64>(y - target.y) * height_ / target.height);
    for (i32 x = clip.x; x < clip.right(); ++x) {
      const i32 sx = static_cast<i32>(
          static_cast<i64>(x - target.x) * width_ / target.width);
      const u8 a = alpha_at(sx, sy);
      if (a == 0) continue;
      const u8 effective =
          static_cast<u8>(static_cast<u32>(a) * opacity_ / 255);
      frame.blend_pixel(x, y, color_at(sx, sy), effective);
    }
  }
}

Sprite Sprite::solid(Size size, Color fill) {
  Sprite s(size.width, size.height);
  const Color border = fill.lerp(colors::kBlack, 0.5);
  for (i32 y = 0; y < s.height_; ++y) {
    for (i32 x = 0; x < s.width_; ++x) {
      const bool edge =
          x == 0 || y == 0 || x == s.width_ - 1 || y == s.height_ - 1;
      s.set(x, y, edge ? border : fill);
    }
  }
  return s;
}

Sprite Sprite::button(Size size, Color fill) {
  Sprite s(size.width, size.height);
  const Color hi = fill.lerp(colors::kWhite, 0.4);
  const Color lo = fill.lerp(colors::kBlack, 0.4);
  for (i32 y = 0; y < s.height_; ++y) {
    for (i32 x = 0; x < s.width_; ++x) {
      Color c = fill;
      if (y == 0 || x == 0) c = hi;                                // bevel top/left
      if (y == s.height_ - 1 || x == s.width_ - 1) c = lo;         // bevel bottom/right
      s.set(x, y, c);
    }
  }
  return s;
}

namespace {

/// 8×8 1-bit glyphs for the icon painter. Each row is a bitmask, MSB left.
struct Glyph {
  const char* name;
  Color color;
  u8 rows[8];
};

constexpr Glyph kGlyphs[] = {
    {"umbrella", {200, 40, 40}, {0x3C, 0x7E, 0xFF, 0x18, 0x18, 0x18, 0x1A, 0x0C}},
    {"key", {230, 210, 60}, {0x30, 0x48, 0x48, 0x30, 0x10, 0x10, 0x18, 0x10}},
    {"computer", {90, 90, 110}, {0x7E, 0x42, 0x42, 0x42, 0x7E, 0x18, 0x3C, 0x00}},
    {"part", {60, 160, 70}, {0x00, 0x3C, 0x24, 0x3C, 0x3C, 0x24, 0x3C, 0x00}},
    {"coin", {240, 200, 40}, {0x3C, 0x42, 0x99, 0xA1, 0xA1, 0x99, 0x42, 0x3C}},
    {"trophy", {240, 180, 40}, {0x7E, 0x7E, 0x3C, 0x3C, 0x18, 0x18, 0x3C, 0x7E}},
    {"book", {60, 90, 180}, {0x7E, 0x81, 0xBD, 0xBD, 0xBD, 0xBD, 0x81, 0x7E}},
    {"person", {200, 150, 120}, {0x18, 0x3C, 0x18, 0x7E, 0x18, 0x3C, 0x24, 0x66}},
    {"door", {140, 90, 40}, {0x7E, 0x42, 0x42, 0x4A, 0x42, 0x42, 0x42, 0x7E}},
    {"apple", {220, 50, 50}, {0x08, 0x10, 0x3C, 0x7E, 0x7E, 0x7E, 0x3C, 0x00}},
};

}  // namespace

Sprite Sprite::icon(const std::string& name, i32 size) {
  const Glyph* glyph = nullptr;
  for (const auto& g : kGlyphs) {
    if (name == g.name) {
      glyph = &g;
      break;
    }
  }
  // Unknown icon: derive a stable checker pattern + color from the name so
  // missing art is visible but not fatal.
  Color color = colors::kGray;
  u8 fallback_rows[8];
  if (!glyph) {
    u64 h = 14695981039346656037ULL;
    for (char c : name) h = (h ^ static_cast<u8>(c)) * 1099511628211ULL;
    color = {static_cast<u8>(64 + (h & 0x7F)), static_cast<u8>(64 + ((h >> 8) & 0x7F)),
             static_cast<u8>(64 + ((h >> 16) & 0x7F))};
    for (int i = 0; i < 8; ++i) fallback_rows[i] = static_cast<u8>(h >> (i * 7));
  }

  Sprite s(size, size);
  // White card background with a border (matches Fig.2's "image object with
  // white background"), glyph scaled over it.
  for (i32 y = 0; y < size; ++y) {
    for (i32 x = 0; x < size; ++x) {
      const bool edge = x == 0 || y == 0 || x == size - 1 || y == size - 1;
      s.set(x, y, edge ? colors::kGray : colors::kWhite);
    }
  }
  const i32 margin = std::max(1, size / 8);
  const i32 cell_area = size - 2 * margin;
  for (int gy = 0; gy < 8; ++gy) {
    for (int gx = 0; gx < 8; ++gx) {
      const u8 row = glyph ? glyph->rows[gy] : fallback_rows[gy];
      if (!(row & (0x80 >> gx))) continue;
      const i32 x0 = margin + gx * cell_area / 8;
      const i32 y0 = margin + gy * cell_area / 8;
      const i32 x1 = margin + (gx + 1) * cell_area / 8;
      const i32 y1 = margin + (gy + 1) * cell_area / 8;
      for (i32 y = y0; y < std::max(y1, y0 + 1); ++y) {
        for (i32 x = x0; x < std::max(x1, x0 + 1); ++x) {
          s.set(x, y, glyph ? glyph->color : color);
        }
      }
    }
  }
  return s;
}

}  // namespace vgbl

namespace vgbl {
namespace {

Result<Size> parse_size(const std::string& token) {
  const size_t x = token.find('x');
  if (x == std::string::npos) return corrupt_data("sprite spec: bad size '" + token + "'");
  const int w = std::atoi(token.substr(0, x).c_str());
  const int h = std::atoi(token.substr(x + 1).c_str());
  if (w <= 0 || h <= 0 || w > 4096 || h > 4096) {
    return corrupt_data("sprite spec: implausible size '" + token + "'");
  }
  return Size{w, h};
}

Result<Color> parse_color(const std::string& token) {
  int r = 0, g = 0, b = 0;
  if (std::sscanf(token.c_str(), "%d,%d,%d", &r, &g, &b) != 3 ||
      r < 0 || g < 0 || b < 0 || r > 255 || g > 255 || b > 255) {
    return corrupt_data("sprite spec: bad color '" + token + "'");
  }
  return Color{static_cast<u8>(r), static_cast<u8>(g), static_cast<u8>(b)};
}

std::vector<std::string> split_spec(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(':', start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

Result<Sprite> Sprite::from_spec(const std::string& spec) {
  if (spec.empty()) return Sprite{};
  const std::vector<std::string> parts = split_spec(spec);
  const std::string& kind = parts[0];
  if (kind == "icon") {
    if (parts.size() < 2 || parts[1].empty()) {
      return corrupt_data("sprite spec: icon needs a name");
    }
    int size = 24;
    if (parts.size() >= 3) size = std::atoi(parts[2].c_str());
    if (size <= 0 || size > 1024) {
      return corrupt_data("sprite spec: implausible icon size");
    }
    return icon(parts[1], size);
  }
  if (kind == "solid" || kind == "button") {
    if (parts.size() < 3) {
      return corrupt_data("sprite spec: '" + kind + "' needs size and color");
    }
    auto size = parse_size(parts[1]);
    if (!size.ok()) return size.error();
    auto color = parse_color(parts[2]);
    if (!color.ok()) return color.error();
    return kind == "solid" ? solid(size.value(), color.value())
                           : button(size.value(), color.value());
  }
  return corrupt_data("sprite spec: unknown kind '" + kind + "'");
}

}  // namespace vgbl
