// Actions: the feedback side of event rules — everything a rule can do to
// the game world when it fires (paper §2.1: "change the play sequence of a
// video. Other resources like text messages, images and webpage are also
// popped up by the users' interaction").
#pragma once

#include <string>
#include <vector>

#include "dialogue/quiz.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

enum class ActionType : u8 {
  kSwitchScenario = 0,  // jump playback to another scenario
  kShowMessage,         // text popup
  kShowImage,           // image popup (sprite by icon name)
  kOpenUrl,             // open an external resource (simulated web catalogue)
  kGiveItem,            // put an item into the backpack
  kRemoveItem,          // take an item from the backpack
  kSetFlag,
  kClearFlag,
  kAddScore,            // award points (may be negative)
  kStartDialogue,       // begin an NPC conversation
  kGrantReward,         // give a reward object + its bonus points (§3.3)
  kRevealObject,        // make a hidden object visible
  kHideObject,
  kReplaySegment,       // restart the current scenario's video
  kEndGame,             // terminal: the mission is complete (or failed)
  kStartQuiz,           // begin a knowledge-check quiz (§3.2 extension)
};

const char* action_type_name(ActionType type);
Result<ActionType> action_type_from_name(std::string_view name);

struct Action {
  ActionType type = ActionType::kShowMessage;
  ScenarioId scenario;   // kSwitchScenario target
  ObjectId object;       // kRevealObject / kHideObject target
  ItemId item;           // kGiveItem / kRemoveItem / kGrantReward
  DialogueId dialogue;   // kStartDialogue
  QuizId quiz;           // kStartQuiz
  std::string text;      // message text / image icon name / url
  i64 amount = 0;        // kAddScore points; kGiveItem count (0 -> 1)
  bool success_outcome = true;  // kEndGame: completed vs failed

  // Builders keep rule definitions readable in authoring code.
  static Action switch_scenario(ScenarioId target) {
    Action a;
    a.type = ActionType::kSwitchScenario;
    a.scenario = target;
    return a;
  }
  static Action show_message(std::string text) {
    Action a;
    a.type = ActionType::kShowMessage;
    a.text = std::move(text);
    return a;
  }
  static Action show_image(std::string icon) {
    Action a;
    a.type = ActionType::kShowImage;
    a.text = std::move(icon);
    return a;
  }
  static Action open_url(std::string url) {
    Action a;
    a.type = ActionType::kOpenUrl;
    a.text = std::move(url);
    return a;
  }
  static Action give_item(ItemId item, i64 count = 1) {
    Action a;
    a.type = ActionType::kGiveItem;
    a.item = item;
    a.amount = count;
    return a;
  }
  static Action remove_item(ItemId item, i64 count = 1) {
    Action a;
    a.type = ActionType::kRemoveItem;
    a.item = item;
    a.amount = count;
    return a;
  }
  static Action set_flag(std::string name) {
    Action a;
    a.type = ActionType::kSetFlag;
    a.text = std::move(name);
    return a;
  }
  static Action clear_flag(std::string name) {
    Action a;
    a.type = ActionType::kClearFlag;
    a.text = std::move(name);
    return a;
  }
  static Action add_score(i64 points, std::string reason = "") {
    Action a;
    a.type = ActionType::kAddScore;
    a.amount = points;
    a.text = std::move(reason);
    return a;
  }
  static Action start_dialogue(DialogueId dialogue) {
    Action a;
    a.type = ActionType::kStartDialogue;
    a.dialogue = dialogue;
    return a;
  }
  static Action grant_reward(ItemId reward_item) {
    Action a;
    a.type = ActionType::kGrantReward;
    a.item = reward_item;
    return a;
  }
  static Action reveal_object(ObjectId object) {
    Action a;
    a.type = ActionType::kRevealObject;
    a.object = object;
    return a;
  }
  static Action hide_object(ObjectId object) {
    Action a;
    a.type = ActionType::kHideObject;
    a.object = object;
    return a;
  }
  static Action replay_segment() {
    Action a;
    a.type = ActionType::kReplaySegment;
    return a;
  }
  static Action end_game(bool success) {
    Action a;
    a.type = ActionType::kEndGame;
    a.success_outcome = success;
    return a;
  }
  static Action start_quiz(QuizId quiz) {
    Action a;
    a.type = ActionType::kStartQuiz;
    a.quiz = quiz;
    return a;
  }
};

}  // namespace vgbl
