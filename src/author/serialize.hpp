// Project (de)serialization: the human-readable `.vgbl` JSON format. The
// video is stored as its ClipSpec recipe; sprites as specs; everything else
// verbatim. Round-trips exactly (property-tested) and is versioned so old
// projects keep loading.
#pragma once

#include <string>

#include "author/project.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace vgbl {

/// Serialises the full project to a JSON document.
[[nodiscard]] Json project_to_json(const Project& project);

/// Text form (pretty-printed, VCS-diffable).
[[nodiscard]] std::string save_project_text(const Project& project);

/// Parses a project document; performs schema-version migration (v1
/// projects lack transition weights; they default to 1.0).
Result<Project> project_from_json(const Json& json);
Result<Project> load_project_text(const std::string& text);

// Entity-level helpers shared with the bundle writer (exposed for tests).
[[nodiscard]] Json condition_to_json(const Condition& c);
Result<Condition> condition_from_json(const Json& json);
[[nodiscard]] Json action_to_json(const Action& a);
Result<Action> action_from_json(const Json& json);
[[nodiscard]] Json trigger_to_json(const Trigger& t);
Result<Trigger> trigger_from_json(const Json& json);
[[nodiscard]] Json rule_to_json(const EventRule& r);
Result<EventRule> rule_from_json(const Json& json);
[[nodiscard]] Json dialogue_to_json(const DialogueTree& d);
Result<DialogueTree> dialogue_from_json(const Json& json);
[[nodiscard]] Json quiz_to_json(const Quiz& q);
Result<Quiz> quiz_from_json(const Json& json);
[[nodiscard]] Json object_to_json(const InteractiveObject& o);
Result<InteractiveObject> object_from_json(const Json& json);
[[nodiscard]] Json clip_spec_to_json(const ClipSpec& spec);
Result<ClipSpec> clip_spec_from_json(const Json& json);

}  // namespace vgbl
