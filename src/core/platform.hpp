// The one-include facade for downstream users: author a project, publish
// it to a bundle, and play it — the full pipeline of the paper's system in
// three calls. Everything here is a thin composition of the underlying
// modules; use them directly for fine control.
#pragma once

#include <memory>

#include "author/bundle.hpp"
#include "author/editor.hpp"
#include "author/importer.hpp"
#include "author/serialize.hpp"
#include "core/classroom.hpp"
#include "core/demo_games.hpp"
#include "runtime/render_text.hpp"
#include "runtime/script.hpp"
#include "runtime/session.hpp"

namespace vgbl {

/// Publishes a project into a loaded, playable bundle.
inline Result<std::shared_ptr<const GameBundle>> publish(
    const Project& project, const BundleOptions& options) {
  auto bundle = build_and_load(project, options);
  if (!bundle.ok()) return bundle.error();
  return std::shared_ptr<const GameBundle>(
      std::make_shared<GameBundle>(std::move(bundle.value())));
}
inline Result<std::shared_ptr<const GameBundle>> publish(
    const Project& project) {
  return publish(project, BundleOptions{});
}

/// Result of a full scripted playthrough.
struct PlaythroughResult {
  bool game_over = false;
  bool succeeded = false;
  i64 score = 0;
  std::string learning_report;
  std::string final_screen;  // ASCII rendering of the last frame
};

/// Plays `script` against a fresh session of `bundle` on a simulated
/// clock; convenience wrapper used by examples and integration tests.
Result<PlaythroughResult> play_scripted(
    std::shared_ptr<const GameBundle> bundle, const InputScript& script,
    SessionOptions options = SessionOptions{});

}  // namespace vgbl
