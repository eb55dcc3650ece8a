// Session recording: captures a player's inputs as an InputScript that
// replays bit-identically against the same bundle (sessions are
// deterministic under SimClock). Lecturers can replay any student's run
// while reading the learning report; tests use it for record/replay
// equivalence checks.
#pragma once

#include "runtime/script.hpp"
#include "util/json.hpp"

namespace vgbl {

/// Decorates a GameSession: forwards every input and appends the
/// equivalent ScriptStep (with the wait steps needed to reproduce timing).
class SessionRecorder {
 public:
  SessionRecorder(GameSession* session, SimClock* clock)
      : session_(session), clock_(clock), last_event_(clock->now()) {}

  // Forwarded inputs (same signatures as GameSession, by object/item name
  // resolution like ScriptRunner so recordings survive id changes).
  Status click(Point canvas_point);
  Status examine(Point canvas_point);
  Status drag_to_inventory(const std::string& object_name);
  Status use_item_on(const std::string& item_name,
                     const std::string& object_name);
  Status combine(const std::string& item_a, const std::string& item_b);
  Status choose_dialogue(size_t index);
  Status advance_dialogue();
  Status answer_quiz(size_t option);
  /// Advances the clock (recorded as a wait step).
  void wait(MicroTime duration);

  [[nodiscard]] const InputScript& script() const { return script_; }

 private:
  /// Records elapsed wall time since the last recorded event as a wait.
  void record_gap();
  /// Name of the object at a canvas point (empty when none).
  [[nodiscard]] std::string object_name_at(Point canvas_point) const;

  GameSession* session_;
  SimClock* clock_;
  InputScript script_;
  MicroTime last_event_;
};

/// Script (de)serialization — recordings are stored/sent as JSON.
[[nodiscard]] Json script_to_json(const InputScript& script);
Result<InputScript> script_from_json(const Json& json);

}  // namespace vgbl
