// Runtime tests: gestures, UI model, the game session's dispatch/default
// behaviours/timers/dialogue/restore, the compositor and the text
// renderers, and the script runner.
#include <gtest/gtest.h>

#include "author/editor.hpp"
#include "author/importer.hpp"
#include "core/demo_games.hpp"
#include "core/platform.hpp"
#include "runtime/compositor.hpp"
#include "runtime/input.hpp"
#include "runtime/render_text.hpp"
#include "runtime/script.hpp"
#include "runtime/session.hpp"
#include "util/text.hpp"

namespace vgbl {
namespace {

std::shared_ptr<const GameBundle> quickstart_bundle() {
  static std::shared_ptr<const GameBundle> cached = [] {
    auto project = build_quickstart_project();
    EXPECT_TRUE(project.ok());
    auto bundle = publish(project.value());
    EXPECT_TRUE(bundle.ok());
    return bundle.value();
  }();
  return cached;
}

std::shared_ptr<const GameBundle> classroom_bundle() {
  static std::shared_ptr<const GameBundle> cached = [] {
    auto bundle = publish(build_classroom_repair_project().value());
    EXPECT_TRUE(bundle.ok());
    return bundle.value();
  }();
  return cached;
}

/// Canvas-space centre of a named object.
Point object_center(const GameSession& session, const std::string& name) {
  for (const auto* o : session.visible_objects()) {
    if (o->name == name) {
      const Point c = o->placement.rect.center();
      const Point origin = session.ui().layout().video_area.origin();
      return {c.x + origin.x, c.y + origin.y};
    }
  }
  ADD_FAILURE() << "object '" << name << "' not visible";
  return {};
}

// --- GestureRecognizer ------------------------------------------------------------

TEST(GestureTest, ClickWithinSlop) {
  GestureRecognizer rec(4);
  EXPECT_FALSE(rec.feed({MouseEvent::Type::kDown, {10, 10}, MouseButton::kLeft, 0}));
  EXPECT_FALSE(rec.feed({MouseEvent::Type::kMove, {12, 11}, MouseButton::kLeft, 1}));
  auto g = rec.feed({MouseEvent::Type::kUp, {12, 11}, MouseButton::kLeft, 2});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->type, Gesture::Type::kClick);
  EXPECT_EQ(g->position, (Point{10, 10}));
}

TEST(GestureTest, DragBeyondSlop) {
  GestureRecognizer rec(4);
  (void)rec.feed({MouseEvent::Type::kDown, {10, 10}, MouseButton::kLeft, 0});
  (void)rec.feed({MouseEvent::Type::kMove, {40, 30}, MouseButton::kLeft, 1});
  EXPECT_TRUE(rec.dragging());
  auto g = rec.feed({MouseEvent::Type::kUp, {60, 50}, MouseButton::kLeft, 2});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->type, Gesture::Type::kDrag);
  EXPECT_EQ(g->position, (Point{10, 10}));
  EXPECT_EQ(g->drag_end, (Point{60, 50}));
}

TEST(GestureTest, RightClickIsExamine) {
  GestureRecognizer rec;
  (void)rec.feed({MouseEvent::Type::kDown, {5, 5}, MouseButton::kRight, 0});
  auto g = rec.feed({MouseEvent::Type::kUp, {5, 5}, MouseButton::kRight, 1});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->type, Gesture::Type::kExamine);
}

TEST(GestureTest, UpWithoutDownIgnored) {
  GestureRecognizer rec;
  EXPECT_FALSE(rec.feed({MouseEvent::Type::kUp, {5, 5}, MouseButton::kLeft, 0}));
}

// --- UiState -----------------------------------------------------------------------

TEST(UiTest, StandardLayoutGeometry) {
  const UiLayout layout = UiLayout::standard({320, 240});
  EXPECT_EQ(layout.video_area.size(), (Size{320, 240}));
  EXPECT_EQ(layout.inventory_window.x, 320);
  EXPECT_GT(layout.canvas.width, 320);
  EXPECT_GT(layout.canvas.height, 240);
  // Regions do not overlap.
  EXPECT_FALSE(layout.video_area.intersects(layout.inventory_window));
  EXPECT_FALSE(layout.video_area.intersects(layout.message_area));
}

TEST(UiTest, MessageTimeout) {
  UiState ui(UiLayout::standard({320, 240}));
  ui.show_message("hello", seconds(1), seconds(2));
  EXPECT_TRUE(ui.message().has_value());
  ui.update(seconds(2));
  EXPECT_TRUE(ui.message().has_value());
  ui.update(seconds(3));
  EXPECT_FALSE(ui.message().has_value());
}

TEST(UiTest, PersistentMessageStays) {
  UiState ui(UiLayout::standard({320, 240}));
  ui.show_message("sticky", 0, 0);
  ui.update(seconds(100));
  EXPECT_TRUE(ui.message().has_value());
  ui.dismiss_message();
  EXPECT_FALSE(ui.message().has_value());
}

TEST(UiTest, InventoryWindowHitTest) {
  UiState ui(UiLayout::standard({320, 240}));
  EXPECT_TRUE(ui.in_inventory_window(ui.layout().inventory_window.center()));
  EXPECT_FALSE(ui.in_inventory_window({10, 100}));
}

// --- GameSession: basics ------------------------------------------------------------

TEST(SessionTest, StartEntersStartScenario) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  ASSERT_TRUE(session.start().ok());
  EXPECT_TRUE(session.current_scenario().valid());
  EXPECT_EQ(session.current_scenario_info()->name, "classroom");
  EXPECT_TRUE(session.visited(session.current_scenario()));
  EXPECT_FALSE(session.start().ok());  // double start rejected
}

TEST(SessionTest, InputBeforeStartRejected) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  EXPECT_FALSE(session.click({10, 10}).ok());
}

TEST(SessionTest, VideoFrameAvailable) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  auto frame = session.current_video_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), (Size{320, 240}));
}

TEST(SessionTest, ObjectAtFindsByCanvasPoint) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  const Point coin = object_center(session, "coin");
  EXPECT_TRUE(session.object_at(coin).valid());
  // Outside the video area: nothing.
  EXPECT_FALSE(session.object_at({-5, -5}).valid());
  EXPECT_FALSE(
      session.object_at(session.ui().layout().inventory_window.center())
          .valid());
}

// --- Default behaviours ----------------------------------------------------------

TEST(SessionDefaultsTest, ClickItemPicksItUp) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.click(object_center(session, "coin")).ok());
  EXPECT_EQ(session.inventory().total_items(), 1);
  EXPECT_EQ(session.score(), 10);  // coin bonus_points
  // Object hidden after pickup.
  for (const auto* o : session.visible_objects()) {
    EXPECT_NE(o->name, "coin");
  }
}

TEST(SessionDefaultsTest, ExamineShowsDescription) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.examine(object_center(session, "coin")).ok());
  ASSERT_TRUE(session.ui().message().has_value());
  EXPECT_NE(session.ui().message()->text.find("coin"), std::string::npos);
}

TEST(SessionDefaultsTest, ClickNpcStartsDialogue) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.click(object_center(session, "teacher")).ok());
  EXPECT_TRUE(session.in_dialogue());
  ASSERT_TRUE(session.ui().dialogue().has_value());
  EXPECT_EQ(session.ui().dialogue()->speaker, "Teacher");
  EXPECT_EQ(session.ui().dialogue()->choices.size(), 2u);
}

TEST(SessionDefaultsTest, DragDraggableToInventory) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const Point map = object_center(session, "torn map");
  const Point inv = session.ui().layout().inventory_window.center();
  ASSERT_TRUE(session.drag(map, inv).ok());
  EXPECT_EQ(session.inventory().total_items(), 1);
}

TEST(SessionDefaultsTest, DragToNowhereDoesNothing) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const Point map = object_center(session, "torn map");
  ASSERT_TRUE(session.drag(map, {10, 10}).ok());
  EXPECT_EQ(session.inventory().total_items(), 0);
}

// --- Rules & state ----------------------------------------------------------------

TEST(SessionRulesTest, ButtonRuleSwitchesScenario) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  const ScenarioId before = session.current_scenario();
  ASSERT_TRUE(session.click(object_center(session, "FINISH")).ok());
  EXPECT_NE(session.current_scenario(), before);
  EXPECT_EQ(session.current_scenario_info()->name, "beach");
  // beach is terminal: game over, success.
  EXPECT_TRUE(session.game_over());
  EXPECT_TRUE(session.succeeded());
}

TEST(SessionRulesTest, InputAfterGameOverRejected) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  (void)session.click(object_center(session, "FINISH"));
  ASSERT_TRUE(session.game_over());
  EXPECT_FALSE(session.click({50, 50}).ok());
  EXPECT_FALSE(session.examine({50, 50}).ok());
}

TEST(SessionRulesTest, GuardedRuleNeedsState) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  // Examining the computer before accepting the mission: the diagnose rule
  // is guarded on mission_accepted, so the default examine fires instead.
  ASSERT_TRUE(session.examine(object_center(session, "computer")).ok());
  EXPECT_FALSE(session.flag("found_problem"));
  ASSERT_TRUE(session.ui().message().has_value());
  EXPECT_NE(session.ui().message()->text.find("does not power on"),
            std::string::npos);
}

TEST(SessionRulesTest, FullClassroomFlowViaDirectCalls) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();

  // Talk to the teacher, accept.
  ASSERT_TRUE(session.click(object_center(session, "teacher")).ok());
  ASSERT_TRUE(session.choose_dialogue(0).ok());
  ASSERT_TRUE(session.advance_dialogue().ok());
  EXPECT_FALSE(session.in_dialogue());
  EXPECT_TRUE(session.flag("mission_accepted"));

  // Diagnose.
  ASSERT_TRUE(session.examine(object_center(session, "computer")).ok());
  EXPECT_TRUE(session.flag("found_problem"));

  // Market: buy the part.
  ASSERT_TRUE(session.click(object_center(session, "GO MARKET")).ok());
  EXPECT_EQ(session.current_scenario_info()->name, "market");
  ASSERT_TRUE(session.click(object_center(session, "psu_box")).ok());
  const ItemDef* part = session.bundle().items.find_by_name("psu_part");
  ASSERT_NE(part, nullptr);
  EXPECT_TRUE(session.inventory().has(part->id));

  // Back, install.
  ASSERT_TRUE(session.click(object_center(session, "BACK TO CLASS")).ok());
  ASSERT_TRUE(
      session.use_item_on(part->id, object_center(session, "computer")).ok());
  EXPECT_TRUE(session.game_over());
  EXPECT_TRUE(session.succeeded());
  EXPECT_FALSE(session.inventory().has(part->id));  // consumed
  const ItemDef* badge = session.bundle().items.find_by_name("repair_badge");
  EXPECT_TRUE(session.inventory().has(badge->id));  // reward in backpack
  EXPECT_EQ(session.score(), 5 + 10 + 10 + 100 + 50);
}

TEST(SessionRulesTest, OnceRulesFireOnce) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  (void)session.click(object_center(session, "teacher"));
  (void)session.choose_dialogue(0);
  (void)session.advance_dialogue();
  (void)session.examine(object_center(session, "computer"));
  const i64 after_first = session.score();
  // Examine again: diagnose is once-only, default examine takes over.
  (void)session.examine(object_center(session, "computer"));
  EXPECT_EQ(session.score(), after_first);
}

TEST(SessionRulesTest, UseItemRequiresHolding) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  const ItemDef* part = session.bundle().items.find_by_name("psu_part");
  EXPECT_FALSE(
      session.use_item_on(part->id, object_center(session, "computer")).ok());
}

TEST(SessionRulesTest, OpenUrlGoesThroughCatalog) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  ASSERT_TRUE(session.click(object_center(session, "PSU INFO")).ok());
  ASSERT_TRUE(session.ui().message().has_value());
  EXPECT_NE(session.ui().message()->text.find("Power supply"),
            std::string::npos);
  ASSERT_EQ(session.resources().access_log().size(), 1u);
  EXPECT_TRUE(session.resources().access_log()[0].found);
}

TEST(SessionRulesTest, CombineViaTable) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  const ItemDef* torn = session.bundle().items.find_by_name("torn_map");
  const ItemDef* lantern = session.bundle().items.find_by_name("lantern");
  const ItemDef* readable = session.bundle().items.find_by_name("readable_map");

  // Not holding: fails.
  EXPECT_FALSE(session.combine_items(torn->id, lantern->id).ok());

  // Pick up both first.
  (void)session.drag(object_center(session, "torn map"),
                     session.ui().layout().inventory_window.center());
  (void)session.click(object_center(session, "TO CAVE"));
  (void)session.click(object_center(session, "lantern"));
  ASSERT_TRUE(session.combine_items(torn->id, lantern->id).ok());
  EXPECT_TRUE(session.inventory().has(readable->id));
  EXPECT_FALSE(session.inventory().has(torn->id));
}

// --- Timers & segment end ----------------------------------------------------------

std::shared_ptr<const GameBundle> timer_bundle() {
  auto project = build_quickstart_project();
  EXPECT_TRUE(project.ok());
  Editor edit(&project.value());
  const ScenarioId classroom =
      project.value().graph.find_by_name("classroom")->id;

  EventRule timer;
  timer.name = "hint after 2s";
  timer.trigger.type = TriggerType::kTimer;
  timer.trigger.scenario = classroom;
  timer.trigger.delay = seconds(2);
  timer.once = true;
  timer.actions = {Action::set_flag("hint_shown"),
                   Action::show_message("Try clicking the coin!")};
  EXPECT_TRUE(edit.add_rule(timer).ok());

  EventRule on_end;
  on_end.name = "nudge at segment end";
  on_end.trigger.type = TriggerType::kSegmentEnd;
  on_end.trigger.scenario = classroom;
  on_end.actions = {Action::set_flag("video_ended")};
  EXPECT_TRUE(edit.add_rule(on_end).ok());

  return publish(project.value()).value();
}

TEST(SessionTimerTest, TimerFiresAtDelay) {
  SimClock clock;
  GameSession session(timer_bundle(), &clock);
  (void)session.start();
  clock.advance(seconds(1));
  session.tick();
  EXPECT_FALSE(session.flag("hint_shown"));
  clock.advance(seconds(1));
  session.tick();
  EXPECT_TRUE(session.flag("hint_shown"));
}

TEST(SessionTimerTest, SegmentEndFiresOnce) {
  SimClock clock;
  GameSession session(timer_bundle(), &clock);
  (void)session.start();
  // The classroom segment is 48 frames @24fps = 2 seconds.
  clock.advance(seconds(3));
  session.tick();
  EXPECT_TRUE(session.flag("video_ended"));
  const size_t log_size = session.event_log().size();
  clock.advance(seconds(1));
  session.tick();  // must not fire again
  EXPECT_EQ(session.event_log().size(), log_size);
}

// --- Restore: typed rejection ------------------------------------------------------

/// A valid mid-game capture and the bundle it was taken against, with the
/// standard reward rules on so the rewards vectors are populated.
struct MidGame {
  std::shared_ptr<const GameBundle> bundle;
  SessionState state;
};

SessionOptions with_rewards() {
  SessionOptions options;
  options.reward_rules = &rewards::RewardRuleSet::standard();
  return options;
}

/// The classroom game with the teacher's conversation open.
MidGame mid_dialogue() {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock, with_rewards());
  (void)session.start();
  clock.advance(seconds(1));
  (void)session.click(object_center(session, "teacher"));
  return {classroom_bundle(), session.capture_state()};
}

/// The science quiz after its first answer.
MidGame mid_quiz() {
  static const std::shared_ptr<const GameBundle> bundle =
      publish(build_science_quiz_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock, with_rewards());
  (void)session.start();
  clock.advance(seconds(1));
  (void)session.click(object_center(session, "TAKE QUIZ"));
  EXPECT_TRUE(session.answer_quiz(1).ok());
  return {bundle, session.capture_state()};
}

/// Restores `state` into a fresh session whose clock reads the time `base`
/// was captured at.
Status restore_fresh(const MidGame& base, const SessionState& state) {
  SimClock clock;
  clock.advance(base.state.now);
  GameSession fresh(base.bundle, &clock, with_rewards());
  return fresh.restore_state(state);
}

struct RestoreRejection {
  const char* field;
  const MidGame* base;
  void (*mutate)(SessionState&);
  ErrorCode expected;
};

TEST(SessionRestoreTest, InconsistentStateRejectedWithTypedError) {
  const MidGame dialogue = mid_dialogue();
  const MidGame quiz = mid_quiz();
  ASSERT_TRUE(dialogue.state.in_dialogue);
  ASSERT_TRUE(quiz.state.in_quiz);
  // The unmutated captures restore.
  ASSERT_TRUE(restore_fresh(dialogue, dialogue.state).ok());
  ASSERT_TRUE(restore_fresh(quiz, quiz.state).ok());

  const RestoreRejection rows[] = {
      {"scenario 9999", &dialogue,
       [](SessionState& s) { s.scenario = ScenarioId{9999}; },
       ErrorCode::kCorruptData},
      {"unknown dialogue id", &dialogue,
       [](SessionState& s) { s.dialogue_id = 9999; }, ErrorCode::kCorruptData},
      {"dialogue path that does not replay", &dialogue,
       [](SessionState& s) { s.dialogue_path.push_back(99); },
       ErrorCode::kCorruptData},
      {"quiz answers that finish the quiz", &quiz,
       [](SessionState& s) { s.quiz_answers = {1, 0, 2}; },
       ErrorCode::kCorruptData},
      {"consumed-tag count past the fired tags", &dialogue,
       [](SessionState& s) { s.dialogue_consumed_tags = 1000; },
       ErrorCode::kCorruptData},
      {"rewards vectors of the wrong length", &dialogue,
       [](SessionState& s) { s.rewards.progress.push_back(0); },
       ErrorCode::kFailedPrecondition},
      {"clock not at state.now", &dialogue,
       [](SessionState& s) { s.now += 1; }, ErrorCode::kFailedPrecondition},
  };
  for (const RestoreRejection& row : rows) {
    SCOPED_TRACE(row.field);
    SessionState bad = row.base->state;
    row.mutate(bad);
    const Status st = restore_fresh(*row.base, bad);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, row.expected) << st.error().to_string();
  }
}

// --- Reveal / hide -----------------------------------------------------------------

TEST(SessionVisibilityTest, RevealAndHideThroughRules) {
  auto bundle = publish(build_treasure_hunt_project().value()).value();
  SimClock clock;
  GameSession session(bundle, &clock);
  (void)session.start();
  (void)session.click(object_center(session, "TO LIBRARY"));
  ASSERT_EQ(session.current_scenario_info()->name, "library");
  // The key is hidden until the hint is heard and the shelf examined.
  for (const auto* o : session.visible_objects()) {
    EXPECT_NE(o->name, "old key");
  }
  (void)session.click(object_center(session, "librarian"));
  (void)session.choose_dialogue(0);
  (void)session.advance_dialogue();
  EXPECT_TRUE(session.flag("heard_hint"));
  (void)session.examine(object_center(session, "bookshelf"));
  bool key_visible = false;
  for (const auto* o : session.visible_objects()) {
    key_visible |= o->name == "old key";
  }
  EXPECT_TRUE(key_visible);
}

/// Two 48-frame scenes (plus a terminal one the game never enters).
/// "bell" sits in "room" only during segment frames [12, 24); the HIDE/SHOW
/// buttons hide and reveal it through rules, GO and BACK switch between the
/// two scenes.
struct WindowedGame {
  std::shared_ptr<const GameBundle> bundle;
  ObjectId bell;
};

WindowedGame windowed_game() {
  Project project;
  ClipSpec clip;
  clip.width = 160;
  clip.height = 120;
  clip.fps = 24;
  clip.scenes.push_back({"room", scene_style("classroom"), 48});
  clip.scenes.push_back({"yard", scene_style("beach"), 48});
  clip.scenes.push_back({"exit", scene_style("market"), 24});
  EXPECT_TRUE(import_clip(project, std::move(clip)).ok());
  const ScenarioId room = project.graph.find_by_name("room")->id;
  const ScenarioId yard = project.graph.find_by_name("yard")->id;
  const ScenarioId exit = project.graph.find_by_name("exit")->id;
  Editor edit(&project);
  EXPECT_TRUE(edit.add_transition({room, yard, "go", "", 1.0}).ok());
  EXPECT_TRUE(edit.add_transition({yard, room, "back", "", 1.0}).ok());
  EXPECT_TRUE(edit.add_transition({yard, exit, "leave", "", 1.0}).ok());
  EXPECT_TRUE(edit.set_terminal(exit, true).ok());

  auto place = [&](const std::string& name, ObjectKind kind,
                   ScenarioId scenario, Rect rect) {
    InteractiveObject o;
    o.name = name;
    o.kind = kind;
    o.scenario = scenario;
    o.placement.rect = rect;
    return edit.place_object(o).value();
  };
  auto on_click = [&](ObjectId button, Action action) {
    EventRule rule;
    rule.name = "click";
    rule.trigger.type = TriggerType::kClick;
    rule.trigger.object = button;
    rule.actions = {std::move(action)};
    EXPECT_TRUE(edit.add_rule(rule).ok());
  };

  InteractiveObject bell;
  bell.name = "bell";
  bell.kind = ObjectKind::kImage;
  bell.scenario = room;
  bell.placement.rect = {60, 50, 30, 30};
  bell.placement.first_frame = 12;
  bell.placement.frame_count = 12;
  const ObjectId bell_id = edit.place_object(bell).value();
  on_click(place("HIDE", ObjectKind::kButton, room, {5, 5, 30, 15}),
           Action::hide_object(bell_id));
  on_click(place("SHOW", ObjectKind::kButton, room, {40, 5, 30, 15}),
           Action::reveal_object(bell_id));
  on_click(place("GO", ObjectKind::kButton, room, {120, 5, 35, 15}),
           Action::switch_scenario(yard));
  on_click(place("BACK", ObjectKind::kButton, yard, {120, 5, 35, 15}),
           Action::switch_scenario(room));
  auto bundle = publish(project);
  EXPECT_TRUE(bundle.ok()) << bundle.error().to_string();
  return {bundle.value(), bell_id};
}

/// Presentation time of segment frame `frame` for a segment started at
/// `start` (24 fps).
MicroTime frame_time(MicroTime start, int frame) {
  return start + (i64{frame} * 1'000'000 + 23) / 24;
}

/// Whether `bell` is in visible_objects(), checked against object_at() on
/// its centre (nothing else covers that point).
bool bell_shown(const GameSession& session, ObjectId bell) {
  bool listed = false;
  for (const auto* o : session.visible_objects()) listed |= o->id == bell;
  const Point origin = session.ui().layout().video_area.origin();
  const Point hit{75 + origin.x, 65 + origin.y};
  EXPECT_EQ(session.object_at(hit).valid(), listed);
  if (session.object_at(hit).valid()) EXPECT_EQ(session.object_at(hit), bell);
  return listed;
}

/// Walks the clock across the bell's window edges of the segment started
/// at `start` and checks the bell is shown exactly inside [12, 24).
void expect_window(const GameSession& session, SimClock& clock,
                   MicroTime start, ObjectId bell, bool shown_inside) {
  for (int frame : {11, 12, 23, 24, 30}) {
    clock.advance_to(frame_time(start, frame));
    ASSERT_EQ(session.current_frame_index(), frame);
    EXPECT_EQ(bell_shown(session, bell),
              shown_inside && frame >= 12 && frame < 24)
        << "frame " << frame;
  }
}

TEST(SessionVisibilityTest, WindowedObjectFollowsItsFrameWindow) {
  const WindowedGame game = windowed_game();
  SimClock clock;
  GameSession session(game.bundle, &clock);
  ASSERT_TRUE(session.start().ok());
  EXPECT_FALSE(bell_shown(session, game.bell));  // frame 0
  expect_window(session, clock, 0, game.bell, true);

  // Round trip through the other scene: the segment restarts, and so does
  // the window.
  auto reenter = [&] {
    ASSERT_TRUE(session.click(object_center(session, "GO")).ok());
    ASSERT_EQ(session.current_scenario_info()->name, "yard");
    ASSERT_TRUE(session.click(object_center(session, "BACK")).ok());
    ASSERT_EQ(session.current_scenario_info()->name, "room");
  };
  reenter();
  MicroTime start = clock.now();
  expect_window(session, clock, start, game.bell, true);

  // Hide and reveal inside the window take effect at once.
  reenter();
  start = clock.now();
  clock.advance_to(frame_time(start, 15));
  EXPECT_TRUE(bell_shown(session, game.bell));
  ASSERT_TRUE(session.click(object_center(session, "HIDE")).ok());
  EXPECT_FALSE(bell_shown(session, game.bell));
  ASSERT_TRUE(session.click(object_center(session, "SHOW")).ok());
  EXPECT_TRUE(bell_shown(session, game.bell));
  clock.advance_to(frame_time(start, 24));
  EXPECT_FALSE(bell_shown(session, game.bell));

  // Hidden across a scene round trip: never shown.
  ASSERT_TRUE(session.click(object_center(session, "HIDE")).ok());
  reenter();
  start = clock.now();
  expect_window(session, clock, start, game.bell, false);
  ASSERT_TRUE(session.click(object_center(session, "SHOW")).ok());
  reenter();
  start = clock.now();

  // Capture at frame 5 with the bell revealed, then restore the capture
  // into a fresh session and into one whose scene cache holds the bell
  // hidden (same scenario, so only the restore's epoch bump can clear it).
  clock.advance_to(frame_time(start, 5));
  const SessionState saved = session.capture_state();

  SimClock fresh_clock;
  fresh_clock.advance_to(saved.now);
  GameSession fresh(game.bundle, &fresh_clock);
  ASSERT_TRUE(fresh.restore_state(saved).ok());
  expect_window(fresh, fresh_clock, start, game.bell, true);

  SimClock warm_clock;
  warm_clock.advance_to(saved.now);
  GameSession warm(game.bundle, &warm_clock);
  ASSERT_TRUE(warm.start().ok());
  ASSERT_TRUE(warm.click(object_center(warm, "HIDE")).ok());
  (void)warm.visible_objects();  // builds the cache without the bell
  ASSERT_TRUE(warm.restore_state(saved).ok());
  expect_window(warm, warm_clock, start, game.bell, true);
}

// --- Analytics ---------------------------------------------------------------------

TEST(AnalyticsTest, TracksVisitsAndDecisions) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  clock.advance(seconds(2));
  (void)session.click(object_center(session, "teacher"));
  (void)session.choose_dialogue(0);
  (void)session.advance_dialogue();
  (void)session.examine(object_center(session, "computer"));
  (void)session.click(object_center(session, "GO MARKET"));
  clock.advance(seconds(3));

  const LearningTracker& t = session.tracker();
  ASSERT_EQ(t.visits().size(), 2u);
  EXPECT_EQ(t.visits()[0].name, "classroom");
  EXPECT_EQ(t.visits()[1].name, "market");
  ASSERT_EQ(t.decisions().size(), 1u);
  EXPECT_EQ(t.decisions()[0].choice, "I will fix it.");
  const auto time = t.time_per_scenario(clock.now());
  EXPECT_GT(time.at("classroom"), 1.5);
  EXPECT_GT(time.at("market"), 2.5);

  const std::string report = t.report(clock.now());
  EXPECT_NE(report.find("decisions: 1"), std::string::npos);
  EXPECT_NE(report.find("classroom"), std::string::npos);

  const Json json = t.to_json(clock.now());
  EXPECT_EQ(json["visits"].as_array().size(), 2u);
}

// --- Compositor & text renderers ---------------------------------------------------

TEST(CompositorTest, RendersFullCanvas) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  Compositor compositor;
  const Frame screen = compositor.render(session);
  EXPECT_EQ(screen.size(), session.ui().layout().canvas);
  // The video area shows actual video (not the chrome background).
  const Color chrome = screen.pixel(screen.width() - 1, screen.height() - 1);
  const Rect va = session.ui().layout().video_area;
  EXPECT_NE(screen.pixel(va.center().x, va.center().y), chrome);
}

TEST(CompositorTest, InventoryItemsDrawn) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  Compositor compositor;
  const Frame before = compositor.render(session);
  (void)session.click(object_center(session, "coin"));
  const Frame after = compositor.render(session);
  // The inventory window region changed after pickup.
  const Rect inv = session.ui().layout().inventory_window;
  f64 diff = 0;
  for (i32 y = inv.y; y < inv.bottom(); ++y) {
    for (i32 x = inv.x; x < inv.right(); ++x) {
      diff += before.pixel(x, y) == after.pixel(x, y) ? 0 : 1;
    }
  }
  EXPECT_GT(diff, 50);
}

TEST(CompositorTest, DrawTextProducesPixels) {
  Frame f = Frame::rgb(100, 20, colors::kBlack);
  Compositor::draw_text(f, {2, 2}, "SCORE 42", colors::kWhite);
  int lit = 0;
  for (i32 y = 0; y < 20; ++y) {
    for (i32 x = 0; x < 100; ++x) {
      lit += f.pixel(x, y) == colors::kWhite;
    }
  }
  EXPECT_GT(lit, 40);
}

TEST(RenderTextTest, AsciiRenderShapes) {
  Frame f = Frame::rgb(96, 48, colors::kBlack);
  f.fill_rect({0, 0, 48, 48}, colors::kWhite);
  const std::string art = ascii_render(f, 32);
  ASSERT_FALSE(art.empty());
  const auto lines = split(art.substr(0, art.size() - 1), '\n');
  EXPECT_EQ(lines[0].size(), 32u);
  // Left half bright, right half dark.
  EXPECT_EQ(lines[0][2], '@');
  EXPECT_EQ(lines[0][30], ' ');
}

TEST(RenderTextTest, PpmHeaderAndSize) {
  Frame f = Frame::rgb(10, 5, colors::kRed);
  const std::string ppm = to_ppm(f);
  EXPECT_EQ(ppm.substr(0, 2), "P6");
  EXPECT_NE(ppm.find("10 5"), std::string::npos);
  EXPECT_EQ(ppm.size(), ppm.find("255\n") + 4 + 10 * 5 * 3);
}

TEST(RenderTextTest, AuthoringViewShowsProjectStructure) {
  auto project = build_classroom_repair_project().value();
  const std::string view = render_authoring_view(project);
  EXPECT_NE(view.find("VGBL AUTHORING TOOL"), std::string::npos);
  EXPECT_NE(view.find("classroom"), std::string::npos);
  EXPECT_NE(view.find("market"), std::string::npos);
  EXPECT_NE(view.find("SCENARIOS"), std::string::npos);
  EXPECT_NE(view.find("OBJECTS"), std::string::npos);
  EXPECT_NE(view.find("LINT"), std::string::npos);
  EXPECT_NE(view.find("teacher"), std::string::npos);
}

TEST(RenderTextTest, RuntimeViewShowsState) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  (void)session.click(object_center(session, "coin"));
  const std::string view = render_runtime_view(session);
  EXPECT_NE(view.find("scenario: classroom"), std::string::npos);
  EXPECT_NE(view.find("score: 10"), std::string::npos);
  EXPECT_NE(view.find("backpack: coin"), std::string::npos);
}

// --- ScriptRunner -------------------------------------------------------------------

TEST(ScriptTest, RunsQuickstartToCompletion) {
  auto result = play_scripted(quickstart_bundle(),
                              {ScriptStep::click("coin"),
                               ScriptStep::click("FINISH")});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().succeeded);
  EXPECT_EQ(result.value().score, 10);
}

TEST(ScriptTest, MissingObjectFailsFast) {
  auto result = play_scripted(quickstart_bundle(),
                              {ScriptStep::click("no_such_thing")});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

TEST(ScriptTest, MissingItemFailsFast) {
  auto result = play_scripted(quickstart_bundle(),
                              {ScriptStep::use_item("ghost", "coin")});
  ASSERT_FALSE(result.ok());
}

TEST(ScriptTest, WaitAdvancesTime) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  ScriptRunner runner(&session, &clock);
  const MicroTime before = clock.now();
  ASSERT_TRUE(runner.run({ScriptStep::wait(seconds(2))}).ok());
  EXPECT_GE(clock.now() - before, seconds(2));
}

// --- Bots ---------------------------------------------------------------------------

TEST(BotTest, ExplorerCompletesQuickstart) {
  SimClock clock;
  GameSession session(quickstart_bundle(), &clock);
  (void)session.start();
  const BotResult result = run_bot(session, clock, BotPolicy::kExplorer, 100, 7);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.succeeded);
  EXPECT_LT(result.steps, 30);
}

TEST(BotTest, ExplorerCompletesClassroomRepair) {
  SimClock clock;
  GameSession session(classroom_bundle(), &clock);
  (void)session.start();
  const BotResult result =
      run_bot(session, clock, BotPolicy::kExplorer, 300, 11);
  EXPECT_TRUE(result.succeeded);
  EXPECT_GT(session.score(), 100);
}

TEST(BotTest, DeterministicForSeed) {
  auto run_once = [](u64 seed) {
    SimClock clock;
    GameSession session(classroom_bundle(), &clock);
    (void)session.start();
    const BotResult r = run_bot(session, clock, BotPolicy::kExplorer, 300, seed);
    return std::make_pair(r.steps, session.score());
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

}  // namespace
}  // namespace vgbl
