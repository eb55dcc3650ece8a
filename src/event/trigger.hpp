// Trigger model: the player gestures and world happenings that can fire
// designer-authored rules (paper §3.1: examine/move objects, use items;
// §4.2: "set the properties and events of objects ... produce adequate
// feedback when users trigger them").
#pragma once

#include <string>

#include "util/result.hpp"
#include "util/sim_clock.hpp"
#include "util/types.hpp"

namespace vgbl {

enum class TriggerType : u8 {
  kClick = 0,         // object clicked
  kExamine,           // object examined (get its description)
  kDragToInventory,   // object dragged into the inventory window (Fig.2)
  kUseItemOn,         // backpack item applied to an object
  kCombineItems,      // two backpack items combined
  kEnterScenario,     // scenario became current
  kSegmentEnd,        // scenario's video segment finished playing
  kTimer,             // fixed delay after scenario entry
  kDialogueTag,       // a dialogue node/choice fired an action tag
};

const char* trigger_type_name(TriggerType type);
Result<TriggerType> trigger_type_from_name(std::string_view name);

/// Rule-side pattern. Unset fields (invalid ids / empty strings) are
/// wildcards; e.g. a kClick trigger with an invalid object id fires on any
/// object click in the rule's scenario scope.
struct Trigger {
  TriggerType type = TriggerType::kClick;
  ObjectId object;
  ItemId item;           // kUseItemOn: the item applied; kCombineItems: one input
  ItemId second_item;    // kCombineItems: the other input
  ScenarioId scenario;   // scenario scope; invalid = any scenario
  MicroTime delay = 0;   // kTimer: microseconds after scenario entry
  std::string tag;       // kDialogueTag: tag to match
};

/// Runtime-side occurrence, produced by the game session.
struct TriggerEvent {
  TriggerType type = TriggerType::kClick;
  ObjectId object;
  ItemId item;
  ItemId second_item;
  ScenarioId scenario;   // scenario current when the event occurred
  MicroTime when = 0;
  std::string tag;
};

/// True when `event` satisfies `pattern` (wildcard semantics above).
[[nodiscard]] bool trigger_matches(const Trigger& pattern,
                                   const TriggerEvent& event);

}  // namespace vgbl
