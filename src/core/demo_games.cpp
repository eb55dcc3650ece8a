#include "core/demo_games.hpp"

#include "author/editor.hpp"
#include "author/importer.hpp"

namespace vgbl {
namespace {

/// Fails loudly when a scenario the builder depends on was not produced by
/// auto-segmentation (would indicate a detector regression).
Result<ScenarioId> scenario_by_name(const Project& p, const std::string& name) {
  const Scenario* s = p.graph.find_by_name(name);
  if (!s) return internal_error("expected scenario '" + name + "' after import");
  return s->id;
}

}  // namespace

Result<Project> build_classroom_repair_project(u64 seed) {
  Project project;
  project.meta.title = "Fix the Classroom Computer";
  project.meta.author = "VGBL demo";
  project.meta.description =
      "The paper's Section 3.2 worked example: find the broken component, "
      "buy a replacement at the market, and repair the computer.";

  // Two filming locations, one scene each.
  ClipSpec clip;
  clip.width = 320;
  clip.height = 240;
  clip.fps = 24;
  clip.seed = seed;
  clip.scenes.push_back({"classroom", scene_style("classroom"), 72});
  clip.scenes.push_back({"market", scene_style("market"), 72});

  if (auto r = import_clip(project, std::move(clip)); !r.ok()) {
    return r.error();
  }
  auto classroom = scenario_by_name(project, "classroom");
  auto market = scenario_by_name(project, "market");
  if (!classroom.ok()) return classroom.error();
  if (!market.ok()) return market.error();

  Editor edit(&project);

  // Items.
  ItemDef part;
  part.name = "psu_part";
  part.description = "A replacement power supply unit.";
  part.icon = "part";
  auto psu_part = edit.add_item(part);
  if (!psu_part.ok()) return psu_part.error();

  ItemDef badge;
  badge.name = "repair_badge";
  badge.description = "Awarded for repairing the classroom computer.";
  badge.icon = "trophy";
  badge.is_reward = true;
  badge.bonus_points = 100;
  auto repair_badge = edit.add_item(badge);
  if (!repair_badge.ok()) return repair_badge.error();

  // Teacher dialogue (fixed conversation, §3.1).
  DialogueTree teacher_talk(DialogueId{}, "teacher_briefing");
  DialogueNode n1;
  n1.id = 1;
  n1.speaker = "Teacher";
  n1.line = "Our computer stopped working. Can you fix it?";
  n1.choices = {{"I will fix it.", 2, "accept_mission"},
                {"Maybe later.", kEndDialogue, ""}};
  DialogueNode n2;
  n2.id = 2;
  n2.speaker = "Teacher";
  n2.line = "Great! Examine the computer first to find the faulty part.";
  n2.next_node = kEndDialogue;
  (void)teacher_talk.add_node(n1);
  (void)teacher_talk.add_node(n2);
  auto dialogue = edit.add_dialogue(teacher_talk);
  if (!dialogue.ok()) return dialogue.error();

  // Objects — classroom.
  InteractiveObject teacher;
  teacher.name = "teacher";
  teacher.kind = ObjectKind::kNpc;
  teacher.scenario = classroom.value();
  teacher.placement.rect = {24, 130, 48, 80};
  teacher.placement.z = 2;
  teacher.sprite_spec = "icon:person:48";
  teacher.description = "Your teacher looks worried about the computer.";
  teacher.dialogue = dialogue.value();
  auto teacher_id = edit.place_object(teacher);
  if (!teacher_id.ok()) return teacher_id.error();

  InteractiveObject computer;
  computer.name = "computer";
  computer.kind = ObjectKind::kImage;
  computer.scenario = classroom.value();
  computer.placement.rect = {200, 150, 72, 56};
  computer.placement.z = 2;
  computer.sprite_spec = "icon:computer:56";
  computer.description = "An old classroom computer. It does not power on.";
  auto computer_id = edit.place_object(computer);
  if (!computer_id.ok()) return computer_id.error();

  InteractiveObject go_market;
  go_market.name = "GO MARKET";
  go_market.kind = ObjectKind::kButton;
  go_market.scenario = classroom.value();
  go_market.placement.rect = {226, 8, 86, 22};
  go_market.placement.z = 5;
  auto go_market_id = edit.place_object(go_market);
  if (!go_market_id.ok()) return go_market_id.error();

  InteractiveObject wiki;
  wiki.name = "PSU INFO";
  wiki.kind = ObjectKind::kButton;
  wiki.scenario = classroom.value();
  wiki.placement.rect = {226, 34, 86, 22};
  wiki.placement.z = 5;
  auto wiki_id = edit.place_object(wiki);
  if (!wiki_id.ok()) return wiki_id.error();

  // Objects — market.
  InteractiveObject psu_box;
  psu_box.name = "psu_box";
  psu_box.kind = ObjectKind::kItem;
  psu_box.scenario = market.value();
  psu_box.placement.rect = {140, 160, 44, 44};
  psu_box.placement.z = 2;
  psu_box.sprite_spec = "icon:part:44";
  psu_box.description = "A boxed power supply unit on the market stall.";
  psu_box.grants_item = psu_part.value();
  auto psu_box_id = edit.place_object(psu_box);
  if (!psu_box_id.ok()) return psu_box_id.error();

  InteractiveObject back_class;
  back_class.name = "BACK TO CLASS";
  back_class.kind = ObjectKind::kButton;
  back_class.scenario = market.value();
  back_class.placement.rect = {8, 8, 110, 22};
  back_class.placement.z = 5;
  auto back_class_id = edit.place_object(back_class);
  if (!back_class_id.ok()) return back_class_id.error();

  // Graph transitions (for validation, the authoring view and prefetch).
  if (auto st = edit.add_transition({classroom.value(), market.value(),
                                     "go to market", "", 1.0});
      !st.ok()) {
    return st.error();
  }
  if (auto st = edit.add_transition({market.value(), classroom.value(),
                                     "return to class", "", 1.0});
      !st.ok()) {
    return st.error();
  }

  // Rules.
  auto add_rule = [&](EventRule r) -> Status {
    auto id = edit.add_rule(std::move(r));
    return id.ok() ? Status{} : Status(id.error());
  };

  {
    EventRule r;
    r.name = "go to market";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = go_market_id.value();
    r.actions = {Action::switch_scenario(market.value())};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "back to class";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = back_class_id.value();
    r.actions = {Action::switch_scenario(classroom.value())};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "mission accepted";
    r.trigger.type = TriggerType::kDialogueTag;
    r.trigger.tag = "accept_mission";
    r.once = true;
    r.actions = {Action::set_flag("mission_accepted"),
                 Action::add_score(5, "accepted the mission"),
                 Action::show_message("Mission: repair the computer.")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "diagnose computer";
    r.trigger.type = TriggerType::kExamine;
    r.trigger.object = computer_id.value();
    r.condition = Condition::all_of(
        {Condition::flag_set("mission_accepted"),
         Condition::negate(Condition::flag_set("found_problem"))});
    r.once = true;
    r.actions = {
        Action::set_flag("found_problem"),
        Action::add_score(10, "diagnosed the fault"),
        Action::show_message("The power supply is dead! Buy a new one.")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "buy part";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = psu_box_id.value();
    r.condition = Condition::flag_set("found_problem");
    r.once = true;
    r.actions = {Action::give_item(psu_part.value()),
                 Action::hide_object(psu_box_id.value()),
                 Action::add_score(10, "bought the right part"),
                 Action::show_message("You bought the power supply.")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "browse market too early";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = psu_box_id.value();
    r.condition = Condition::negate(Condition::flag_set("found_problem"));
    r.actions = {Action::show_message(
        "You are not sure what to buy. Inspect the computer first.")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "install part";
    r.trigger.type = TriggerType::kUseItemOn;
    r.trigger.object = computer_id.value();
    r.trigger.item = psu_part.value();
    r.once = true;
    r.actions = {Action::remove_item(psu_part.value()),
                 Action::set_flag("computer_fixed"),
                 Action::show_message("The computer hums back to life!"),
                 Action::grant_reward(repair_badge.value()),
                 Action::add_score(50, "repaired the computer"),
                 Action::end_game(true)};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "open psu wiki";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = wiki_id.value();
    r.actions = {Action::open_url("vgbl://wiki/power_supply")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }

  return project;
}

Result<Project> build_treasure_hunt_project(u64 seed) {
  Project project;
  project.meta.title = "Treasure Hunt";
  project.meta.author = "VGBL demo";
  project.meta.description =
      "Find the torn map and the lantern, read the map, fetch the key from "
      "the library, and open the vault.";

  ClipSpec clip;
  clip.width = 320;
  clip.height = 240;
  clip.fps = 24;
  clip.seed = seed;
  clip.scenes.push_back({"beach", scene_style("beach"), 60});
  clip.scenes.push_back({"cave", scene_style("cave"), 60});
  clip.scenes.push_back({"library", scene_style("library"), 60});
  clip.scenes.push_back({"vault", scene_style("office"), 48});

  if (auto r = import_clip(project, std::move(clip)); !r.ok()) {
    return r.error();
  }
  auto beach = scenario_by_name(project, "beach");
  auto cave = scenario_by_name(project, "cave");
  auto library = scenario_by_name(project, "library");
  auto vault = scenario_by_name(project, "vault");
  if (!beach.ok()) return beach.error();
  if (!cave.ok()) return cave.error();
  if (!library.ok()) return library.error();
  if (!vault.ok()) return vault.error();

  Editor edit(&project);
  if (auto st = edit.set_terminal(vault.value(), true); !st.ok()) {
    return st.error();
  }

  // Items.
  auto make_item = [&](const char* name, const char* icon, const char* desc,
                       bool reward = false, i64 bonus = 0) -> Result<ItemId> {
    ItemDef def;
    def.name = name;
    def.icon = icon;
    def.description = desc;
    def.is_reward = reward;
    def.bonus_points = bonus;
    return edit.add_item(def);
  };
  auto torn_map = make_item("torn_map", "book", "A faded, torn treasure map.");
  auto lantern = make_item("lantern", "key", "An oil lantern, still working.");
  auto old_key = make_item("old_key", "key", "A heavy iron key.");
  auto readable_map =
      make_item("readable_map", "book", "The map, legible by lantern light.");
  auto trophy = make_item("gold_trophy", "trophy",
                          "The legendary golden trophy.", true, 200);
  for (const auto* r : {&torn_map, &lantern, &old_key, &readable_map, &trophy}) {
    if (!r->ok()) return r->error();
  }

  // Librarian dialogue.
  DialogueTree librarian(DialogueId{}, "librarian_hint");
  DialogueNode l1;
  l1.id = 1;
  l1.speaker = "Librarian";
  l1.line = "Looking for something?";
  l1.choices = {{"Where is the vault key?", 2, "asked_key"},
                {"Just browsing.", kEndDialogue, ""}};
  DialogueNode l2;
  l2.id = 2;
  l2.speaker = "Librarian";
  l2.line = "Check the tall bookshelf. Old things hide behind old books.";
  l2.next_node = kEndDialogue;
  l2.action_tag = "hint_given";
  (void)librarian.add_node(l1);
  (void)librarian.add_node(l2);
  auto librarian_dialogue = edit.add_dialogue(librarian);
  if (!librarian_dialogue.ok()) return librarian_dialogue.error();

  // Combine: torn map + lantern = readable map.
  CombineRule combine;
  combine.a = torn_map.value();
  combine.b = lantern.value();
  combine.result = readable_map.value();
  combine.description = "read the map by lantern light";
  if (auto st = edit.add_combine_rule(combine); !st.ok()) return st.error();

  // Objects.
  auto place = [&](const char* name, ObjectKind kind, ScenarioId scenario,
                   Rect rect, const char* sprite, const char* desc,
                   ItemId grants = {}, bool draggable = false,
                   DialogueId dlg = {}, bool visible = true)
      -> Result<ObjectId> {
    InteractiveObject o;
    o.name = name;
    o.kind = kind;
    o.scenario = scenario;
    o.placement.rect = rect;
    o.placement.z = kind == ObjectKind::kButton ? 5 : 2;
    o.placement.visible = visible;
    o.sprite_spec = sprite;
    o.description = desc;
    o.grants_item = grants;
    o.draggable = draggable;
    o.dialogue = dlg;
    return edit.place_object(o);
  };

  auto map_obj = place("torn map", ObjectKind::kItem, beach.value(),
                       {60, 180, 36, 36}, "icon:book:36",
                       "A scrap of parchment half-buried in the sand.",
                       torn_map.value(), true);
  auto to_cave = place("TO CAVE", ObjectKind::kButton, beach.value(),
                       {226, 8, 86, 22}, "", "");
  auto to_library = place("TO LIBRARY", ObjectKind::kButton, beach.value(),
                          {226, 34, 86, 22}, "", "");
  auto lantern_obj = place("lantern", ObjectKind::kItem, cave.value(),
                           {90, 170, 36, 36}, "icon:key:36",
                           "Someone left a lantern here.", lantern.value());
  auto vault_door = place("vault door", ObjectKind::kImage, cave.value(),
                          {210, 120, 70, 90}, "icon:door:70",
                          "A massive door with an old lock.");
  auto cave_back = place("TO BEACH", ObjectKind::kButton, cave.value(),
                         {8, 8, 86, 22}, "", "");
  auto bookshelf = place("bookshelf", ObjectKind::kImage, library.value(),
                         {40, 90, 80, 120}, "icon:book:80",
                         "A tall bookshelf stuffed with dusty volumes.");
  auto key_obj = place("old key", ObjectKind::kItem, library.value(),
                       {70, 150, 28, 28}, "icon:key:28",
                       "An iron key on a hook behind the books.",
                       old_key.value(), false, DialogueId{}, false);
  auto librarian_obj = place("librarian", ObjectKind::kNpc, library.value(),
                             {200, 120, 48, 90}, "icon:person:48",
                             "The librarian watches you over her glasses.",
                             ItemId{}, false, librarian_dialogue.value());
  auto lib_back = place("TO BEACH", ObjectKind::kButton, library.value(),
                        {8, 8, 86, 22}, "", "");
  auto chest = place("treasure chest", ObjectKind::kReward, vault.value(),
                     {130, 140, 60, 50}, "icon:trophy:56",
                     "The treasure of the old captain.");
  for (const auto* r :
       {&map_obj, &to_cave, &to_library, &lantern_obj, &vault_door, &cave_back,
        &bookshelf, &key_obj, &librarian_obj, &lib_back, &chest}) {
    if (!r->ok()) return r->error();
  }

  // Transitions with prefetch weights: most players go to the cave first.
  struct Edge {
    ScenarioId from, to;
    const char* label;
    f64 weight;
  };
  const Edge edges[] = {
      {beach.value(), cave.value(), "to cave", 2.0},
      {beach.value(), library.value(), "to library", 1.0},
      {cave.value(), beach.value(), "back to beach", 1.0},
      {library.value(), beach.value(), "back to beach", 1.0},
      {cave.value(), vault.value(), "open the vault", 0.5},
  };
  for (const auto& e : edges) {
    if (auto st = edit.add_transition({e.from, e.to, e.label, "", e.weight});
        !st.ok()) {
      return st.error();
    }
  }

  // Rules.
  auto add_rule = [&](EventRule r) -> Status {
    auto id = edit.add_rule(std::move(r));
    return id.ok() ? Status{} : Status(id.error());
  };
  auto nav_rule = [&](const char* name, ObjectId button, ScenarioId target) {
    EventRule r;
    r.name = name;
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = button;
    r.actions = {Action::switch_scenario(target)};
    return add_rule(r);
  };
  if (auto st = nav_rule("nav beach->cave", to_cave.value(), cave.value());
      !st.ok()) {
    return st.error();
  }
  if (auto st =
          nav_rule("nav beach->library", to_library.value(), library.value());
      !st.ok()) {
    return st.error();
  }
  if (auto st = nav_rule("nav cave->beach", cave_back.value(), beach.value());
      !st.ok()) {
    return st.error();
  }
  if (auto st = nav_rule("nav library->beach", lib_back.value(), beach.value());
      !st.ok()) {
    return st.error();
  }
  {
    EventRule r;
    r.name = "reveal key behind books";
    r.trigger.type = TriggerType::kExamine;
    r.trigger.object = bookshelf.value();
    r.condition = Condition::flag_set("heard_hint");
    r.once = true;
    r.actions = {Action::reveal_object(key_obj.value()),
                 Action::add_score(15, "found the hidden key"),
                 Action::show_message("Behind the books hangs an iron key!")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "hint noted";
    r.trigger.type = TriggerType::kDialogueTag;
    r.trigger.tag = "hint_given";
    r.once = true;
    r.actions = {Action::set_flag("heard_hint"),
                 Action::add_score(5, "asked the librarian")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "open vault";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = vault_door.value();
    r.condition = Condition::all_of({Condition::has_item(readable_map.value()),
                                     Condition::has_item(old_key.value())});
    r.actions = {Action::show_message("The key turns. The map was right!"),
                 Action::switch_scenario(vault.value())};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "vault locked";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = vault_door.value();
    r.condition = Condition::negate(
        Condition::all_of({Condition::has_item(readable_map.value()),
                           Condition::has_item(old_key.value())}));
    r.actions = {Action::show_message(
        "The vault door will not budge. You need the right key and a plan.")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }
  {
    EventRule r;
    r.name = "claim treasure";
    r.trigger.type = TriggerType::kEnterScenario;
    r.trigger.scenario = vault.value();
    r.once = true;
    r.actions = {Action::grant_reward(trophy.value()),
                 Action::add_score(100, "reached the vault")};
    if (auto st = add_rule(r); !st.ok()) return st.error();
  }

  return project;
}

Result<Project> build_quickstart_project(u64 seed) {
  Project project;
  project.meta.title = "Quickstart";
  project.meta.author = "VGBL demo";

  ClipSpec clip;
  clip.width = 320;
  clip.height = 240;
  clip.fps = 24;
  clip.seed = seed;
  clip.scenes.push_back({"classroom", scene_style("classroom"), 48});
  clip.scenes.push_back({"beach", scene_style("beach"), 48});

  if (auto r = import_clip(project, std::move(clip)); !r.ok()) {
    return r.error();
  }
  auto classroom = scenario_by_name(project, "classroom");
  auto beach = scenario_by_name(project, "beach");
  if (!classroom.ok()) return classroom.error();
  if (!beach.ok()) return beach.error();

  Editor edit(&project);
  if (auto st = edit.set_terminal(beach.value(), true); !st.ok()) {
    return st.error();
  }

  ItemDef coin;
  coin.name = "coin";
  coin.icon = "coin";
  coin.description = "A shiny coin.";
  coin.bonus_points = 10;
  auto coin_id = edit.add_item(coin);
  if (!coin_id.ok()) return coin_id.error();

  InteractiveObject coin_obj;
  coin_obj.name = "coin";
  coin_obj.kind = ObjectKind::kItem;
  coin_obj.scenario = classroom.value();
  coin_obj.placement.rect = {150, 170, 28, 28};
  coin_obj.sprite_spec = "icon:coin:28";
  coin_obj.description = "Someone dropped a coin under the desk.";
  coin_obj.grants_item = coin_id.value();
  auto coin_obj_id = edit.place_object(coin_obj);
  if (!coin_obj_id.ok()) return coin_obj_id.error();

  InteractiveObject finish;
  finish.name = "FINISH";
  finish.kind = ObjectKind::kButton;
  finish.scenario = classroom.value();
  finish.placement.rect = {226, 8, 86, 22};
  finish.placement.z = 5;
  auto finish_id = edit.place_object(finish);
  if (!finish_id.ok()) return finish_id.error();

  if (auto st = edit.add_transition(
          {classroom.value(), beach.value(), "finish", "", 1.0});
      !st.ok()) {
    return st.error();
  }

  EventRule go;
  go.name = "finish game";
  go.trigger.type = TriggerType::kClick;
  go.trigger.object = finish_id.value();
  go.actions = {Action::switch_scenario(beach.value())};
  if (auto r = edit.add_rule(go); !r.ok()) return r.error();

  return project;
}

Result<Project> build_science_quiz_project(u64 seed) {
  Project project;
  project.meta.title = "Science Check";
  project.meta.author = "VGBL demo";
  project.meta.description =
      "Pass the teacher's three-question hardware quiz to earn the badge.";

  ClipSpec clip;
  clip.width = 320;
  clip.height = 240;
  clip.fps = 24;
  clip.seed = seed;
  clip.scenes.push_back({"lab", scene_style("lab"), 72});

  if (auto r = import_clip(project, std::move(clip)); !r.ok()) {
    return r.error();
  }
  auto lab = scenario_by_name(project, "lab");
  if (!lab.ok()) return lab.error();

  Editor edit(&project);

  ItemDef badge;
  badge.name = "scholar_badge";
  badge.icon = "trophy";
  badge.is_reward = true;
  badge.bonus_points = 50;
  auto badge_id = edit.add_item(badge);
  if (!badge_id.ok()) return badge_id.error();

  Quiz quiz(QuizId{}, "hardware_basics");
  quiz.set_pass_fraction(0.66);
  quiz.add_question({"What does the power supply unit do?",
                     {"Stores your documents",
                      "Converts mains power for the components",
                      "Cools the processor"},
                     1,
                     "The PSU converts wall AC into low-voltage DC.",
                     10});
  quiz.add_question({"Which part connects all the others?",
                     {"The motherboard", "The monitor", "The mouse"},
                     0,
                     "Every component plugs into the motherboard.",
                     10});
  quiz.add_question({"A computer that does not power on most likely has a...",
                     {"full hard disk", "broken screen saver", "dead PSU"},
                     2,
                     "No power at all usually points at the supply.",
                     10});
  auto quiz_id = edit.add_quiz(quiz);
  if (!quiz_id.ok()) return quiz_id.error();

  InteractiveObject teacher;
  teacher.name = "teacher";
  teacher.kind = ObjectKind::kImage;  // no dialogue; the button starts it
  teacher.scenario = lab.value();
  teacher.placement.rect = {40, 120, 48, 90};
  teacher.sprite_spec = "icon:person:48";
  teacher.description = "The science teacher, quiz cards in hand.";
  auto teacher_id = edit.place_object(teacher);
  if (!teacher_id.ok()) return teacher_id.error();

  InteractiveObject take_quiz;
  take_quiz.name = "TAKE QUIZ";
  take_quiz.kind = ObjectKind::kButton;
  take_quiz.scenario = lab.value();
  take_quiz.placement.rect = {220, 10, 92, 22};
  take_quiz.placement.z = 5;
  auto take_quiz_id = edit.place_object(take_quiz);
  if (!take_quiz_id.ok()) return take_quiz_id.error();

  {
    EventRule r;
    r.name = "start the quiz";
    r.trigger.type = TriggerType::kClick;
    r.trigger.object = take_quiz_id.value();
    r.actions = {Action::start_quiz(quiz_id.value())};
    if (auto rid = edit.add_rule(r); !rid.ok()) return rid.error();
  }
  {
    EventRule r;
    r.name = "quiz passed";
    r.trigger.type = TriggerType::kDialogueTag;
    r.trigger.tag = "quiz_done";
    r.condition = Condition::flag_set("quiz_passed:hardware_basics");
    r.once = true;
    r.actions = {Action::grant_reward(badge_id.value()),
                 Action::end_game(true)};
    if (auto rid = edit.add_rule(r); !rid.ok()) return rid.error();
  }
  {
    EventRule r;
    r.name = "quiz failed";
    r.trigger.type = TriggerType::kDialogueTag;
    r.trigger.tag = "quiz_done";
    r.condition = Condition::negate(
        Condition::flag_set("quiz_passed:hardware_basics"));
    r.actions = {Action::show_message(
        "Not enough correct answers - study and try again!")};
    if (auto rid = edit.add_rule(r); !rid.ok()) return rid.error();
  }
  return project;
}

Result<Project> build_scaled_project(int scenario_count,
                                     int objects_per_scenario,
                                     int rules_per_object, u64 seed) {
  Project project;
  project.meta.title = "Scaled project (" + std::to_string(scenario_count) +
                       " scenarios)";
  project.meta.author = "bench";

  // The scaled workload needs an exact scenario count, so segments come
  // straight from the clip recipe (ground truth) instead of the detector —
  // detector accuracy is evaluated separately in E4.
  ClipSpec clip = make_demo_spec(scenario_count, 24, 320, 240, seed);
  project.clip_spec = clip;
  Editor edit(&project);
  std::vector<ScenarioId> ids;
  int frame = 0;
  for (int i = 0; i < scenario_count; ++i) {
    VideoSegment seg;
    seg.first_frame = frame;
    seg.frame_count = clip.scenes[static_cast<size_t>(i)].duration_frames;
    seg.suggested_name = clip.scenes[static_cast<size_t>(i)].name;
    frame += seg.frame_count;
    project.segments.push_back(seg);
    project.segment_ids.push_back(project.segment_id_alloc.next());
    auto sid = edit.add_scenario(seg.suggested_name, project.segment_ids.back());
    if (!sid.ok()) return sid.error();
    ids.push_back(sid.value());
  }
  if (auto st = edit.set_start_scenario(ids.front()); !st.ok()) {
    return st.error();
  }

  Rng rng(seed);
  for (int i = 0; i < scenario_count; ++i) {
    for (int j = 0; j < objects_per_scenario; ++j) {
      InteractiveObject o;
      o.name = "obj_" + std::to_string(i) + "_" + std::to_string(j);
      o.kind = ObjectKind::kButton;
      o.scenario = ids[static_cast<size_t>(i)];
      const i32 x = static_cast<i32>(rng.range(0, 280));
      const i32 y = static_cast<i32>(rng.range(0, 200));
      o.placement.rect = {x, y, 36, 20};
      o.placement.z = static_cast<i32>(j);
      auto oid = edit.place_object(o);
      if (!oid.ok()) return oid.error();
      for (int k = 0; k < rules_per_object; ++k) {
        EventRule r;
        r.name = "rule_" + o.name + "_" + std::to_string(k);
        r.trigger.type = TriggerType::kClick;
        r.trigger.object = oid.value();
        r.condition = Condition::score_at_least(static_cast<i64>(k));
        r.actions = {Action::add_score(1, "clicked " + o.name)};
        if (auto rid = edit.add_rule(r); !rid.ok()) return rid.error();
      }
    }
    if (i + 1 < scenario_count) {
      if (auto st = edit.add_transition({ids[static_cast<size_t>(i)],
                                         ids[static_cast<size_t>(i + 1)],
                                         "next", "", 1.0});
          !st.ok()) {
        return st.error();
      }
    }
  }
  if (auto st = edit.set_terminal(ids.back(), true); !st.ok()) {
    return st.error();
  }
  return project;
}

}  // namespace vgbl
