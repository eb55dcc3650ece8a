// Sprites: small RGBA rasters mounted over video frames ("an image object
// with white background is mounted on the video frame", paper §4.3, Fig.2).
// Includes a procedural icon painter so examples and tests have recognisable
// object art (umbrella, key, computer part, ...) without binary assets.
#pragma once

#include <string>
#include <vector>

#include "util/result.hpp"
#include "video/frame.hpp"

namespace vgbl {

class Sprite {
 public:
  Sprite() = default;
  Sprite(i32 width, i32 height);

  [[nodiscard]] i32 width() const { return width_; }
  [[nodiscard]] i32 height() const { return height_; }
  [[nodiscard]] Size size() const { return {width_, height_}; }
  [[nodiscard]] bool empty() const { return rgba_.empty(); }

  [[nodiscard]] Color color_at(i32 x, i32 y) const;
  [[nodiscard]] u8 alpha_at(i32 x, i32 y) const;
  void set(i32 x, i32 y, Color c, u8 alpha = 255);

  /// Alpha-composites this sprite over `frame` with its top-left at `at`,
  /// optionally scaled to `target` size (nearest-neighbour).
  void draw(Frame& frame, Point at) const;
  void draw_scaled(Frame& frame, Rect target) const;

  /// Uniform translucency multiplier applied at draw time (0..255).
  void set_opacity(u8 opacity) { opacity_ = opacity; }
  [[nodiscard]] u8 opacity() const { return opacity_; }

  /// Fully opaque single-colour rectangle with a darker border.
  static Sprite solid(Size size, Color fill);
  /// Button face: fill, border, no glyph (text rendering is the UI
  /// overlay's job).
  static Sprite button(Size size, Color fill);
  /// Procedural icon by name; unknown names get a stable generic glyph.
  /// Known: umbrella, key, computer, part, coin, trophy, book, person,
  /// door, apple.
  static Sprite icon(const std::string& name, i32 size = 24);

  /// Builds a sprite from a textual spec — the serializable sprite
  /// representation used by the project format. Grammar:
  ///   "icon:<name>[:<size>]"
  ///   "solid:<w>x<h>:<r>,<g>,<b>"
  ///   "button:<w>x<h>:<r>,<g>,<b>"
  ///   "" (empty sprite)
  static Result<Sprite> from_spec(const std::string& spec);

  bool operator==(const Sprite&) const = default;

  [[nodiscard]] const std::vector<u8>& rgba() const { return rgba_; }

 private:
  [[nodiscard]] size_t index(i32 x, i32 y) const {
    return (static_cast<size_t>(y) * static_cast<size_t>(width_) +
            static_cast<size_t>(x)) *
           4;
  }

  i32 width_ = 0;
  i32 height_ = 0;
  u8 opacity_ = 255;
  std::vector<u8> rgba_;
};

}  // namespace vgbl
