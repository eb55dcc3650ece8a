// Video import — the scenario editor's entry point (paper §4.1): "The
// users just need to select video files from network or video cameras such
// that video can be divided into scenario components by the authoring
// tool." Here the "video file" is a ClipSpec recipe rendered by the
// synthetic generator; the segmentation pipeline is the real one.
#pragma once

#include "author/project.hpp"
#include "util/result.hpp"

namespace vgbl {

struct ImportOptions {
  SegmentationConfig segmentation;
  /// Create one scenario per detected segment, wired to it, and set the
  /// first as the start scenario (the tool's default workflow).
  bool create_scenarios = true;
};

struct ImportReport {
  int frame_count = 0;
  int cut_count = 0;
  int segment_count = 0;
  std::vector<std::string> scenario_names;
};

/// Imports a clip into the project: renders it, auto-segments it into
/// scenario components, assigns segment ids, and (optionally) creates one
/// scenario per segment. Replaces any previously imported video; fails
/// with kFailedPrecondition if scenarios already reference old segments
/// and `create_scenarios` is false.
Result<ImportReport> import_clip(Project& project, ClipSpec spec,
                                 const ImportOptions& options = {});

/// Re-renders the project's clip from its recipe (authoring preview and
/// bundling both need the frames).
Result<Clip> render_project_clip(const Project& project);

}  // namespace vgbl
