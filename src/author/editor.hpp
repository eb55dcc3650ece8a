// The authoring tool's editing surface: scenario editor (§4.1) + object
// editor (§4.2) operations over a Project, with full undo/redo. Every
// mutation goes through a Command so the tool can offer the edit history
// a GUI front-end would show.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "author/project.hpp"

namespace vgbl {

class Editor {
 public:
  explicit Editor(Project* project) : project_(project) {}

  // --- Scenario editor (paper §4.1) --------------------------------------
  /// Adds a scenario presenting `segment`; returns the new id.
  Result<ScenarioId> add_scenario(std::string name, SegmentId segment);
  Status remove_scenario(ScenarioId id);
  Status rename_scenario(ScenarioId id, std::string new_name);
  Status set_start_scenario(ScenarioId id);
  Status set_terminal(ScenarioId id, bool terminal);
  Status add_transition(ScenarioTransition transition);
  Status remove_transition(ScenarioId from, ScenarioId to, std::string label);

  // --- Object editor (paper §4.2) -----------------------------------------
  /// Places `proto` (id field ignored; a fresh id is assigned). The sprite
  /// is built from proto.sprite_spec when the sprite itself is empty.
  Result<ObjectId> place_object(InteractiveObject proto);
  Status remove_object(ObjectId id);
  Status move_object(ObjectId id, Point new_origin);
  Status resize_object(ObjectId id, Size new_size);
  Status set_object_property(ObjectId id, std::string key, PropertyValue value);
  Status set_object_sprite(ObjectId id, std::string spec);
  Status set_object_description(ObjectId id, std::string description);
  Status set_object_visible(ObjectId id, bool visible);

  // --- Items / rules / dialogues ------------------------------------------
  Result<ItemId> add_item(ItemDef proto);
  Result<RuleId> add_rule(EventRule proto);
  Status remove_rule(RuleId id);
  Result<DialogueId> add_dialogue(DialogueTree tree);
  Result<QuizId> add_quiz(Quiz quiz);
  Status add_combine_rule(CombineRule rule);

  // --- History --------------------------------------------------------------
  [[nodiscard]] bool can_undo() const { return !undo_.empty(); }
  [[nodiscard]] bool can_redo() const { return !redo_.empty(); }
  Status undo();
  Status redo();
  /// Human-readable descriptions of applied commands, oldest first.
  [[nodiscard]] std::vector<std::string> history() const;
  [[nodiscard]] size_t command_count() const { return undo_.size(); }

 private:
  struct Command {
    std::string description;
    std::function<Status()> apply;
    std::function<void()> revert;
  };

  /// Runs `command.apply`; on success records it for undo and clears the
  /// redo stack (standard linear-history semantics).
  Status execute(Command command);

  Project* project_;
  std::vector<Command> undo_;
  std::vector<Command> redo_;
};

}  // namespace vgbl
