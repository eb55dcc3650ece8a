#include "gen/generator.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "author/editor.hpp"
#include "author/serialize.hpp"
#include "concurrency/thread_pool.hpp"
#include "util/fileio.hpp"
#include "video/synthetic.hpp"

namespace vgbl::gen {
namespace {

constexpr std::array<const char*, 8> kPlaces = {
    "classroom", "market", "street", "lab",
    "cave",      "beach",  "library", "office"};

constexpr std::array<const char*, 6> kIconNames = {"orb",  "book", "coin",
                                                   "part", "gem",  "plant"};

/// Non-overlapping placement slots: a demand-sized grid over the video
/// frame, handed out in a seed-shuffled order so layouts differ per
/// scenario but clicks through ScriptRunner::locate never hit the wrong
/// object. The grid grows (up to 8x8) to fit however many objects the
/// planner put into one scenario, so `take()` cannot run dry for any
/// parameter set that passes GenParams::validate().
class CellAllocator {
 public:
  CellAllocator(int frame_w, int frame_h, int min_cells, Rng& rng) {
    int cols = 4;
    int rows = 4;
    while (cols * rows < min_cells && (cols < 8 || rows < 8)) {
      if (cols <= rows && cols < 8) {
        ++cols;
      } else {
        ++rows;
      }
    }
    cell_w_ = frame_w / cols;
    cell_h_ = frame_h / rows;
    order_.resize(static_cast<size_t>(cols * rows));
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
    for (size_t i = order_.size(); i > 1; --i) {  // Fisher–Yates on the Rng
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
    cols_ = cols;
  }

  Result<Rect> take() {
    if (next_ >= order_.size()) {
      return internal_error("generator: scenario object grid exhausted");
    }
    const int cell = order_[next_++];
    const int col = cell % cols_;
    const int row = cell / cols_;
    return Rect{col * cell_w_ + 1, row * cell_h_ + 1, cell_w_ - 2,
                cell_h_ - 2};
  }

 private:
  int cols_ = 4;
  int cell_w_ = 0;
  int cell_h_ = 0;
  std::vector<int> order_;
  size_t next_ = 0;
};

enum class GateKind { kItem, kCombinedItem, kDialogueFlag, kQuizFlag };

struct GateSpec {
  int edge = 0;          // gates the transition path[edge] -> path[edge + 1]
  GateKind kind = GateKind::kItem;
  int source_node = 0;   // path node where the prerequisite lives
  int branch = -1;       // >= 0: prerequisite placed in this branch instead
  bool door = false;     // item gate crossed by use-item-on-door
};

/// One planned pickup object: scene placement decided before any object is
/// created so grids can be demand-sized.
struct PickupPlan {
  int scene = 0;                  // scenario list index (path or branch)
  std::string object_name;
  std::string item_name;
  ItemId item;
};

struct NpcPlan {
  std::string object_name;
  size_t good_choice = 0;
  int advances = 0;
};

struct QuizAtNode {
  std::string board_name;
  std::vector<size_t> answers;
};

struct BranchPlan {
  int attach = 0;                 // path node hosting the visit button
  std::string name;
  ScenarioId id;
  std::vector<std::string> pickup_objects;
  std::string visit_button;
  std::string return_button;
  std::string examine_decoy;
};

/// Per-path-node solver agenda, emitted in order after construction.
struct NodePlan {
  ScenarioId id;
  std::string name;
  std::vector<std::string> pickup_objects;
  std::vector<std::pair<std::string, std::string>> combines_after;
  std::vector<int> branches;      // branch indices attached here
  std::vector<NpcPlan> npcs;
  std::vector<QuizAtNode> quizzes;
  std::string examine_decoy;
  std::string go_button;          // empty: terminal or door edge
  std::string door_object;
  std::string door_item;
};

std::string hex_seed(u64 seed) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += digits[(seed >> shift) & 0xF];
  }
  return out;
}

/// Decorates `obj` with a mixed-type property bag — the round-trip fodder
/// that caught the whole-valued-double JSON typing bug (author_test
/// PropertyBagRoundTripPreservesTypes).
void decorate_properties(InteractiveObject& obj, Rng& rng) {
  if (rng.chance(0.5)) obj.properties.set_int("weight", rng.range(1, 40));
  if (rng.chance(0.5)) {
    // Whole-valued doubles on purpose: the bag must stay double-typed
    // across save/load even when the value prints without a fraction.
    const f64 shine = rng.chance(0.5) ? static_cast<f64>(rng.range(1, 5))
                                      : rng.uniform() * 4.0;
    obj.properties.set_double("shine", shine);
  }
  if (rng.chance(0.4)) obj.properties.set_bool("fragile", rng.chance(0.5));
  if (rng.chance(0.4)) {
    obj.properties.set_string("note", "prop-" + std::to_string(rng.below(100)));
  }
}

}  // namespace

Status GenParams::validate() const {
  const auto bad = [](const std::string& what) {
    return invalid_argument("gen params: " + what);
  };
  if (scenario_count < 2 || scenario_count > 40) {
    return bad("scenario_count must be in [2, 40]");
  }
  if (branch_count < 0 || branch_count > 8 ||
      branch_count > scenario_count - 2) {
    return bad("branch_count must be in [0, 8] and leave a 2-scenario path");
  }
  const int path_len = scenario_count - branch_count;
  if (puzzle_chain < 0 || puzzle_chain > 4 ||
      puzzle_chain > std::max(0, path_len - 2)) {
    return bad("puzzle_chain must be in [0, 4] and fit the path edges");
  }
  if (dialogue_count < 0 || dialogue_count > 4) {
    return bad("dialogue_count must be in [0, 4]");
  }
  if (quiz_count < 0 || quiz_count > 3) {
    return bad("quiz_count must be in [0, 3]");
  }
  if (reward_rule_count < 1 || reward_rule_count > 24) {
    return bad("reward_rule_count must be in [1, 24]");
  }
  if (decoy_objects < 0 || decoy_objects > 4) {
    return bad("decoy_objects must be in [0, 4]");
  }
  if (frames_per_scene < 2 || frames_per_scene > 48) {
    return bad("frames_per_scene must be in [2, 48]");
  }
  if (frame_width < 96 || frame_width > 640 || frame_height < 72 ||
      frame_height > 480) {
    return bad("frame size must be in [96x72, 640x480]");
  }
  return {};
}

Json GenParams::to_json() const {
  Json j = Json::object();
  JsonObject& obj = j.mutable_object();
  obj.set("scenario_count", Json(static_cast<i64>(scenario_count)));
  obj.set("branch_count", Json(static_cast<i64>(branch_count)));
  obj.set("puzzle_chain", Json(static_cast<i64>(puzzle_chain)));
  obj.set("dialogue_count", Json(static_cast<i64>(dialogue_count)));
  obj.set("quiz_count", Json(static_cast<i64>(quiz_count)));
  obj.set("reward_rule_count", Json(static_cast<i64>(reward_rule_count)));
  obj.set("decoy_objects", Json(static_cast<i64>(decoy_objects)));
  obj.set("frames_per_scene", Json(static_cast<i64>(frames_per_scene)));
  obj.set("frame_width", Json(static_cast<i64>(frame_width)));
  obj.set("frame_height", Json(static_cast<i64>(frame_height)));
  return j;
}

Result<GenParams> GenParams::from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("gen params: expected object");
  GenParams p;
  const auto get = [&](const char* key, int fallback) {
    return static_cast<int>(json[key].as_int(fallback));
  };
  p.scenario_count = get("scenario_count", p.scenario_count);
  p.branch_count = get("branch_count", p.branch_count);
  p.puzzle_chain = get("puzzle_chain", p.puzzle_chain);
  p.dialogue_count = get("dialogue_count", p.dialogue_count);
  p.quiz_count = get("quiz_count", p.quiz_count);
  p.reward_rule_count = get("reward_rule_count", p.reward_rule_count);
  p.decoy_objects = get("decoy_objects", p.decoy_objects);
  p.frames_per_scene = get("frames_per_scene", p.frames_per_scene);
  p.frame_width = get("frame_width", p.frame_width);
  p.frame_height = get("frame_height", p.frame_height);
  if (auto st = p.validate(); !st.ok()) return st.error();
  return p;
}

GenParams random_params(Rng& rng) {
  GenParams p;
  p.scenario_count = static_cast<int>(rng.range(3, 12));
  p.branch_count = static_cast<int>(
      rng.below(static_cast<u64>(std::min(3, p.scenario_count - 2)) + 1));
  const int path_len = p.scenario_count - p.branch_count;
  p.puzzle_chain = static_cast<int>(
      rng.below(static_cast<u64>(std::clamp(path_len - 2, 0, 4)) + 1));
  p.dialogue_count = static_cast<int>(rng.below(3));
  p.quiz_count = static_cast<int>(rng.below(3));
  p.reward_rule_count = static_cast<int>(rng.range(6, 14));
  p.decoy_objects = static_cast<int>(rng.below(5));
  p.frames_per_scene = static_cast<int>(rng.range(4, 16));
  constexpr std::array<std::pair<int, int>, 4> kSizes = {
      {{96, 72}, {120, 90}, {160, 120}, {192, 144}}};
  const auto& size = kSizes[rng.below(kSizes.size())];
  p.frame_width = size.first;
  p.frame_height = size.second;
  return p;
}

Result<GeneratedCourse> generate_course(const GenParams& params, u64 seed) {
  if (auto st = params.validate(); !st.ok()) return st.error();
  Rng rng(seed);

  GeneratedCourse course;
  course.params = params;
  course.seed = seed;
  course.title = "gen-" + hex_seed(seed);

  Project& project = course.project;
  project.meta.title = course.title;
  project.meta.author = "vgbl-gen";
  project.meta.description = "procedurally generated course";
  Editor edit(&project);

  const int path_len = params.scenario_count - params.branch_count;
  const int terminal = path_len - 1;

  // --- scenes and scenarios (direct segment construction) -----------------
  std::vector<std::string> names;
  std::vector<std::string> bases;
  for (int i = 0; i < params.scenario_count; ++i) {
    bases.emplace_back(kPlaces[rng.below(kPlaces.size())]);
    names.push_back(bases.back() + "-" + std::to_string(i));
  }

  ClipSpec clip;
  clip.width = params.frame_width;
  clip.height = params.frame_height;
  clip.fps = 12;
  clip.seed = rng.next();
  for (int i = 0; i < params.scenario_count; ++i) {
    const int frames =
        params.frames_per_scene + static_cast<int>(rng.below(4));
    clip.scenes.push_back({names[static_cast<size_t>(i)],
                           scene_style(bases[static_cast<size_t>(i)]),
                           frames});
  }
  project.clip_spec = clip;

  std::vector<ScenarioId> sids;
  int frame = 0;
  for (int i = 0; i < params.scenario_count; ++i) {
    VideoSegment seg;
    seg.first_frame = frame;
    seg.frame_count = clip.scenes[static_cast<size_t>(i)].duration_frames;
    seg.suggested_name = names[static_cast<size_t>(i)];
    frame += seg.frame_count;
    project.segments.push_back(seg);
    project.segment_ids.push_back(project.segment_id_alloc.next());
    auto sid = edit.add_scenario(names[static_cast<size_t>(i)],
                                 project.segment_ids.back());
    if (!sid.ok()) return sid.error();
    sids.push_back(sid.value());
  }
  // Path = scenarios [0, path_len); branches = the rest.
  if (auto st = edit.set_start_scenario(sids.front()); !st.ok()) {
    return st.error();
  }
  if (auto st = edit.set_terminal(sids[static_cast<size_t>(terminal)], true);
      !st.ok()) {
    return st.error();
  }

  // --- structural planning (no objects created yet) ------------------------
  std::vector<NodePlan> nodes(static_cast<size_t>(path_len));
  for (int f = 0; f < path_len; ++f) {
    nodes[static_cast<size_t>(f)].id = sids[static_cast<size_t>(f)];
    nodes[static_cast<size_t>(f)].name = names[static_cast<size_t>(f)];
  }
  std::vector<BranchPlan> branches(static_cast<size_t>(params.branch_count));
  for (int b = 0; b < params.branch_count; ++b) {
    auto& plan = branches[static_cast<size_t>(b)];
    plan.attach = static_cast<int>(rng.below(static_cast<u64>(path_len - 1)));
    plan.name = names[static_cast<size_t>(path_len + b)];
    plan.id = sids[static_cast<size_t>(path_len + b)];
    nodes[static_cast<size_t>(plan.attach)].branches.push_back(b);
  }

  // Gate edges: distinct f in [1, path_len - 2]; the transition f -> f+1
  // only becomes crossable once the prerequisite is satisfied. The puzzle
  // dependency graph is acyclic by construction: every prerequisite lives
  // at a path node (or a branch attached to one) with index <= f, so the
  // solver path s0 -> s1 -> ... always exists.
  std::vector<int> gate_edges;
  {
    std::vector<int> candidates;
    for (int f = 1; f <= path_len - 2; ++f) candidates.push_back(f);
    for (size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1], candidates[rng.below(i)]);
    }
    for (int g = 0; g < params.puzzle_chain; ++g) {
      gate_edges.push_back(candidates[static_cast<size_t>(g)]);
    }
    std::sort(gate_edges.begin(), gate_edges.end());
  }

  int dialogues_left = params.dialogue_count;
  int quizzes_left = params.quiz_count;
  bool combine_used = false;
  std::vector<GateSpec> gates;
  for (int edge : gate_edges) {
    GateSpec gate;
    gate.edge = edge;
    std::vector<GateKind> kinds = {GateKind::kItem};
    if (!combine_used) kinds.push_back(GateKind::kCombinedItem);
    if (dialogues_left > 0) kinds.push_back(GateKind::kDialogueFlag);
    if (quizzes_left > 0) kinds.push_back(GateKind::kQuizFlag);
    gate.kind = kinds[rng.below(kinds.size())];
    gate.source_node = static_cast<int>(rng.below(static_cast<u64>(edge) + 1));
    if (gate.kind == GateKind::kCombinedItem) combine_used = true;
    if (gate.kind == GateKind::kDialogueFlag) --dialogues_left;
    if (gate.kind == GateKind::kQuizFlag) --quizzes_left;
    if (gate.kind == GateKind::kItem) {
      // Sometimes the key sits in a side branch reachable before the gate,
      // and sometimes the gate is crossed by using the key on a door.
      std::vector<int> eligible;
      for (int b = 0; b < params.branch_count; ++b) {
        if (branches[static_cast<size_t>(b)].attach <= edge) {
          eligible.push_back(b);
        }
      }
      if (!eligible.empty() && rng.chance(0.4)) {
        gate.branch = eligible[rng.below(eligible.size())];
        gate.source_node = branches[static_cast<size_t>(gate.branch)].attach;
      }
      gate.door = rng.chance(0.35);
    }
    gates.push_back(gate);
  }

  // --- items ---------------------------------------------------------------
  struct GateItem {
    ItemId id;
    std::string name;
  };
  std::vector<GateItem> gate_items(gates.size());
  std::vector<PickupPlan> pickups;
  const auto make_item = [&](const std::string& name,
                             bool reward) -> Result<ItemId> {
    ItemDef def;
    def.name = name;
    def.description = "generated item " + name;
    def.icon = std::string(kIconNames[rng.below(kIconNames.size())]);
    def.stackable = rng.chance(0.25);
    // Non-default max_stack on both stackable and non-stackable items on
    // purpose — field combinations hand-authored bundles never used
    // (author_test ItemMaxStackRoundTripsForEveryStackableCombination).
    def.max_stack = def.stackable ? static_cast<int>(rng.range(2, 5))
                    : rng.chance(0.3) ? static_cast<int>(rng.range(2, 4))
                                      : 1;
    def.is_reward = reward;
    if (reward) def.bonus_points = rng.range(5, 20);
    return edit.add_item(def);
  };

  for (size_t g = 0; g < gates.size(); ++g) {
    const GateSpec& gate = gates[g];
    if (gate.kind != GateKind::kItem && gate.kind != GateKind::kCombinedItem) {
      continue;
    }
    gate_items[g].name = "key-" + std::to_string(gate.edge);
    auto key = make_item(gate_items[g].name, false);
    if (!key.ok()) return key.error();
    gate_items[g].id = key.value();
    if (gate.kind == GateKind::kItem) {
      PickupPlan pickup;
      pickup.scene = gate.branch >= 0 ? path_len + gate.branch
                                      : gate.source_node;
      pickup.object_name = "pickup-" + gate_items[g].name;
      pickup.item_name = gate_items[g].name;
      pickup.item = gate_items[g].id;
      pickups.push_back(pickup);
      if (gate.branch >= 0) {
        branches[static_cast<size_t>(gate.branch)].pickup_objects.push_back(
            pickup.object_name);
      } else {
        nodes[static_cast<size_t>(gate.source_node)].pickup_objects.push_back(
            pickup.object_name);
      }
    } else {
      // Combined key: two parts on path nodes; the solver combines them as
      // soon as the second one is in the inventory.
      const std::string part_a = "part-a-" + std::to_string(gate.edge);
      const std::string part_b = "part-b-" + std::to_string(gate.edge);
      auto a = make_item(part_a, false);
      if (!a.ok()) return a.error();
      auto b = make_item(part_b, false);
      if (!b.ok()) return b.error();
      CombineRule combine;
      combine.a = a.value();
      combine.b = b.value();
      combine.result = gate_items[g].id;
      combine.description = "assemble " + gate_items[g].name;
      if (auto st = edit.add_combine_rule(combine); !st.ok()) return st.error();

      const int node_a =
          static_cast<int>(rng.below(static_cast<u64>(gate.source_node) + 1));
      PickupPlan plan_a{node_a, "pickup-" + part_a, part_a, a.value()};
      PickupPlan plan_b{gate.source_node, "pickup-" + part_b, part_b,
                        b.value()};
      pickups.push_back(plan_a);
      pickups.push_back(plan_b);
      nodes[static_cast<size_t>(node_a)].pickup_objects.push_back(
          plan_a.object_name);
      auto& source = nodes[static_cast<size_t>(gate.source_node)];
      source.pickup_objects.push_back(plan_b.object_name);
      source.combines_after.emplace_back(part_a, part_b);
    }
  }
  ItemId trophy;
  const std::string trophy_name = "trophy-" + hex_seed(seed).substr(12);
  {
    auto id = make_item(trophy_name, true);
    if (!id.ok()) return id.error();
    trophy = id.value();
  }

  // --- dialogues -----------------------------------------------------------
  struct DialoguePlan {
    DialogueId id;
    int node = 0;
    size_t good_choice = 0;
    int advances = 0;
    std::string tag;
    std::string flag;
    std::string good_text;
  };
  std::vector<DialoguePlan> dialogues;
  std::vector<int> dialogue_gate_edges;
  for (const GateSpec& gate : gates) {
    if (gate.kind == GateKind::kDialogueFlag) {
      dialogue_gate_edges.push_back(gate.edge);
    }
  }
  for (int d = 0; d < params.dialogue_count; ++d) {
    DialoguePlan plan;
    plan.tag = "dlg-good-" + std::to_string(d);
    plan.flag = "skill-" + std::to_string(d);
    plan.good_text = "I studied this (reply " + std::to_string(d) + ")";
    const bool gating = d < static_cast<int>(dialogue_gate_edges.size());
    const int limit = gating ? dialogue_gate_edges[static_cast<size_t>(d)]
                             : std::max(0, path_len - 2);
    plan.node = static_cast<int>(rng.below(static_cast<u64>(limit) + 1));
    plan.good_choice = rng.below(2);
    plan.advances = static_cast<int>(rng.range(1, 2));

    DialogueTree tree(DialogueId{}, "talk-" + std::to_string(d));
    DialogueNode root;
    root.id = 0;
    root.speaker = "npc-" + std::to_string(d);
    root.line = "What do you know about " +
                names[static_cast<size_t>(plan.node)] + "?";
    DialogueChoice good;
    good.text = plan.good_text;
    good.next_node = 1;
    good.action_tag = plan.tag;
    DialogueChoice brush_off;
    brush_off.text = "No idea.";
    brush_off.next_node = kEndDialogue;
    if (plan.good_choice == 0) {
      root.choices = {good, brush_off};
    } else {
      root.choices = {brush_off, good};
    }
    if (auto st = tree.add_node(root); !st.ok()) return st.error();
    for (int n = 1; n <= plan.advances; ++n) {
      DialogueNode line;
      line.id = n;
      line.speaker = root.speaker;
      line.line = "Lesson part " + std::to_string(n);
      line.next_node = n < plan.advances ? n + 1 : kEndDialogue;
      if (auto st = tree.add_node(line); !st.ok()) return st.error();
    }
    auto id = edit.add_dialogue(tree);
    if (!id.ok()) return id.error();
    plan.id = id.value();
    dialogues.push_back(plan);
    nodes[static_cast<size_t>(plan.node)].npcs.push_back(
        {"npc-" + std::to_string(d), plan.good_choice, plan.advances});
  }

  // --- quizzes -------------------------------------------------------------
  struct QuizPlan {
    QuizId id;
    int node = 0;
    std::string name;
    std::vector<size_t> answers;
  };
  std::vector<QuizPlan> quizzes;
  std::vector<int> quiz_gate_edges;
  for (const GateSpec& gate : gates) {
    if (gate.kind == GateKind::kQuizFlag) quiz_gate_edges.push_back(gate.edge);
  }
  for (int q = 0; q < params.quiz_count; ++q) {
    QuizPlan plan;
    plan.name = "quiz-" + std::to_string(q);
    const bool gating = q < static_cast<int>(quiz_gate_edges.size());
    const int limit = gating ? quiz_gate_edges[static_cast<size_t>(q)]
                             : std::max(0, path_len - 2);
    plan.node = static_cast<int>(rng.below(static_cast<u64>(limit) + 1));

    Quiz quiz(QuizId{}, plan.name);
    if (rng.chance(0.3)) quiz.set_pass_fraction(0.5);
    const int questions = static_cast<int>(rng.range(1, 3));
    for (int n = 0; n < questions; ++n) {
      QuizQuestion question;
      question.prompt =
          "Question " + std::to_string(n) + " of " + plan.name + "?";
      const int options = static_cast<int>(rng.range(2, 4));
      const size_t correct = rng.below(static_cast<u64>(options));
      for (int o = 0; o < options; ++o) {
        question.options.push_back(o == static_cast<int>(correct)
                                       ? "correct answer"
                                       : "wrong answer " + std::to_string(o));
      }
      question.correct_option = correct;
      question.explanation = "explanation " + std::to_string(n);
      if (rng.chance(0.3)) question.points = rng.range(5, 20);
      quiz.add_question(question);
      plan.answers.push_back(correct);
    }
    auto id = edit.add_quiz(quiz);
    if (!id.ok()) return id.error();
    plan.id = id.value();
    quizzes.push_back(plan);
    nodes[static_cast<size_t>(plan.node)].quizzes.push_back(
        {"board-" + plan.name, plan.answers});
  }

  // --- demand-sized placement grids ---------------------------------------
  std::vector<int> demand(static_cast<size_t>(params.scenario_count),
                          params.decoy_objects);
  for (int f = 0; f < path_len; ++f) {
    const NodePlan& node = nodes[static_cast<size_t>(f)];
    auto& d = demand[static_cast<size_t>(f)];
    if (f < path_len - 1) ++d;  // GO button or door
    d += static_cast<int>(node.branches.size());  // VISIT buttons
    d += static_cast<int>(node.pickup_objects.size());
    d += static_cast<int>(node.npcs.size());
    d += static_cast<int>(node.quizzes.size());
  }
  for (size_t b = 0; b < branches.size(); ++b) {
    auto& d = demand[static_cast<size_t>(path_len) + b];
    ++d;  // RETURN button
    d += static_cast<int>(branches[b].pickup_objects.size());
  }
  std::vector<CellAllocator> cells;
  cells.reserve(static_cast<size_t>(params.scenario_count));
  for (int i = 0; i < params.scenario_count; ++i) {
    cells.emplace_back(params.frame_width, params.frame_height,
                       demand[static_cast<size_t>(i)], rng);
  }
  const auto place = [&](int scene_index,
                         InteractiveObject proto) -> Result<ObjectId> {
    auto rect = cells[static_cast<size_t>(scene_index)].take();
    if (!rect.ok()) return rect.error();
    proto.scenario = sids[static_cast<size_t>(scene_index)];
    proto.placement.rect = rect.value();
    return edit.place_object(std::move(proto));
  };
  const auto make_button = [&](int scene_index,
                               const std::string& label) -> Result<ObjectId> {
    InteractiveObject button;
    button.name = label;
    button.kind = ObjectKind::kButton;
    button.sprite_spec = "button:40x16:51,102,153";
    return place(scene_index, button);
  };

  // --- objects -------------------------------------------------------------
  for (const PickupPlan& pickup : pickups) {
    InteractiveObject obj;
    obj.name = pickup.object_name;
    obj.kind = ObjectKind::kItem;
    obj.grants_item = pickup.item;
    obj.sprite_spec =
        "icon:" + std::string(kIconNames[rng.below(kIconNames.size())]) +
        ":20";
    obj.description = "A " + pickup.item_name + " you can pick up.";
    decorate_properties(obj, rng);
    if (auto id = place(pickup.scene, obj); !id.ok()) return id.error();
  }
  for (const DialoguePlan& plan : dialogues) {
    InteractiveObject npc;
    npc.name = "npc-" + std::to_string(&plan - dialogues.data());
    npc.kind = ObjectKind::kNpc;
    npc.dialogue = plan.id;
    npc.sprite_spec = "icon:person:32";
    npc.description = "Someone who knows the area.";
    if (auto id = place(plan.node, npc); !id.ok()) return id.error();
  }
  std::vector<ObjectId> quiz_boards(quizzes.size());
  for (size_t q = 0; q < quizzes.size(); ++q) {
    InteractiveObject board;
    board.name = "board-" + quizzes[q].name;
    board.kind = ObjectKind::kButton;
    board.sprite_spec = "button:44x16:136,85,34";
    board.description = "Take the " + quizzes[q].name + ".";
    auto id = place(quizzes[q].node, board);
    if (!id.ok()) return id.error();
    quiz_boards[q] = id.value();
  }

  // Navigation buttons / doors along the path, then branch visit/return.
  std::vector<ObjectId> go_buttons(static_cast<size_t>(path_len));
  std::vector<ObjectId> doors(static_cast<size_t>(path_len));
  for (int f = 0; f < path_len - 1; ++f) {
    const GateSpec* gate = nullptr;
    for (const GateSpec& g : gates) {
      if (g.edge == f) gate = &g;
    }
    auto& node = nodes[static_cast<size_t>(f)];
    if (gate != nullptr && gate->door) {
      InteractiveObject door;
      door.name = "door-" + std::to_string(f);
      door.kind = ObjectKind::kImage;
      door.sprite_spec = "solid:28x40:85,51,17";
      door.description = "A locked door.";
      auto id = place(f, door);
      if (!id.ok()) return id.error();
      doors[static_cast<size_t>(f)] = id.value();
      node.door_object = door.name;
      node.door_item =
          gate_items[static_cast<size_t>(gate - gates.data())].name;
    } else {
      const std::string label = "GO " + names[static_cast<size_t>(f + 1)];
      auto id = make_button(f, label);
      if (!id.ok()) return id.error();
      go_buttons[static_cast<size_t>(f)] = id.value();
      node.go_button = label;
    }
  }
  std::vector<ObjectId> visit_buttons(branches.size());
  std::vector<ObjectId> return_buttons(branches.size());
  for (size_t b = 0; b < branches.size(); ++b) {
    BranchPlan& plan = branches[b];
    plan.visit_button = "VISIT " + plan.name;
    auto visit = make_button(plan.attach, plan.visit_button);
    if (!visit.ok()) return visit.error();
    visit_buttons[b] = visit.value();
    plan.return_button = "RETURN " + names[static_cast<size_t>(plan.attach)];
    auto ret = make_button(path_len + static_cast<int>(b), plan.return_button);
    if (!ret.ok()) return ret.error();
    return_buttons[b] = ret.value();
  }

  // Decoys.
  for (int i = 0; i < params.scenario_count; ++i) {
    for (int d = 0; d < params.decoy_objects; ++d) {
      InteractiveObject decoy;
      decoy.name = "decoy-" + std::to_string(i) + "-" + std::to_string(d);
      decoy.kind = ObjectKind::kImage;
      decoy.sprite_spec =
          rng.chance(0.5)
              ? "icon:" +
                    std::string(kIconNames[rng.below(kIconNames.size())]) +
                    ":18"
              : "solid:18x14:68,119,85";
      if (rng.chance(0.6)) {
        decoy.description = "Scenery item " + decoy.name + ".";
      }
      decorate_properties(decoy, rng);
      if (auto id = place(i, decoy); !id.ok()) return id.error();
      if (d == 0 && rng.chance(0.5)) {
        if (i < path_len && i != terminal) {
          nodes[static_cast<size_t>(i)].examine_decoy = decoy.name;
        } else if (i >= path_len) {
          branches[static_cast<size_t>(i - path_len)].examine_decoy =
              decoy.name;
        }
      }
    }
  }

  // --- transitions and rules ----------------------------------------------
  const auto add_nav_rule = [&](const std::string& name, ObjectId button,
                                ScenarioId from, ScenarioId to,
                                Condition condition,
                                const std::string& hint) -> Status {
    ScenarioTransition transition{from, to, name, hint, 1.0};
    if (rng.chance(0.3)) {
      transition.weight = 0.5 + 0.25 * static_cast<double>(rng.below(4));
    }
    if (auto st = edit.add_transition(transition); !st.ok()) return st;
    EventRule rule;
    rule.name = name;
    rule.trigger.type = TriggerType::kClick;
    rule.trigger.object = button;
    rule.condition = std::move(condition);
    rule.actions.push_back(Action::switch_scenario(to));
    auto id = edit.add_rule(rule);
    if (!id.ok()) return id.error();
    return {};
  };

  for (int f = 0; f < path_len - 1; ++f) {
    const GateSpec* gate = nullptr;
    for (const GateSpec& g : gates) {
      if (g.edge == f) gate = &g;
    }
    const ScenarioId from = sids[static_cast<size_t>(f)];
    const ScenarioId to = sids[static_cast<size_t>(f + 1)];
    if (gate != nullptr && gate->door) {
      // Door gate: the transition fires on use-item, not on a button.
      const size_t gate_index = static_cast<size_t>(gate - gates.data());
      ScenarioTransition transition{
          from, to, "unlock " + names[static_cast<size_t>(f + 1)],
          "needs " + gate_items[gate_index].name, 1.0};
      if (auto st = edit.add_transition(transition); !st.ok()) {
        return st.error();
      }
      EventRule rule;
      rule.name = "door-" + std::to_string(f);
      rule.trigger.type = TriggerType::kUseItemOn;
      rule.trigger.object = doors[static_cast<size_t>(f)];
      rule.trigger.item = gate_items[gate_index].id;
      if (rng.chance(0.5)) {
        rule.actions.push_back(Action::remove_item(gate_items[gate_index].id));
      }
      rule.actions.push_back(Action::switch_scenario(to));
      if (auto id = edit.add_rule(rule); !id.ok()) return id.error();
      continue;
    }
    Condition condition = Condition::always();
    std::string hint;
    if (gate != nullptr) {
      const size_t gate_index = static_cast<size_t>(gate - gates.data());
      switch (gate->kind) {
        case GateKind::kItem:
        case GateKind::kCombinedItem:
          condition = Condition::has_item(gate_items[gate_index].id);
          hint = "needs " + gate_items[gate_index].name;
          break;
        case GateKind::kDialogueFlag:
          // Any dialogue whose NPC sits at or before the gate works: the
          // solver takes every skill-gated reply on the way through.
          for (const DialoguePlan& plan : dialogues) {
            if (plan.node <= gate->edge) {
              condition = Condition::flag_set(plan.flag);
              hint = "needs flag " + plan.flag;
            }
          }
          break;
        case GateKind::kQuizFlag:
          for (const QuizPlan& plan : quizzes) {
            if (plan.node <= gate->edge) {
              condition = Condition::flag_set("quiz_passed:" + plan.name);
              hint = "needs " + plan.name;
            }
          }
          break;
      }
      if (rng.chance(0.3)) {
        // Wrap in a trivially-true conjunction to vary serialized shapes.
        std::vector<Condition> parts;
        parts.push_back(std::move(condition));
        parts.push_back(Condition::visited(from));
        condition = Condition::all_of(std::move(parts));
      }
    }
    if (auto st = add_nav_rule("go-" + std::to_string(f),
                               go_buttons[static_cast<size_t>(f)], from, to,
                               std::move(condition), hint);
        !st.ok()) {
      return st.error();
    }
  }
  for (size_t b = 0; b < branches.size(); ++b) {
    const BranchPlan& plan = branches[b];
    const ScenarioId attach_id = sids[static_cast<size_t>(plan.attach)];
    if (auto st = add_nav_rule("visit-" + plan.name, visit_buttons[b],
                               attach_id, plan.id, Condition::always(), "");
        !st.ok()) {
      return st.error();
    }
    if (auto st = add_nav_rule("return-" + plan.name, return_buttons[b],
                               plan.id, attach_id, Condition::always(), "");
        !st.ok()) {
      return st.error();
    }
  }

  // Dialogue skill tags -> flags + score.
  for (size_t d = 0; d < dialogues.size(); ++d) {
    EventRule rule;
    rule.name = "skill-reply-" + std::to_string(d);
    rule.trigger.type = TriggerType::kDialogueTag;
    rule.trigger.tag = dialogues[d].tag;
    rule.once = true;
    rule.actions.push_back(Action::set_flag(dialogues[d].flag));
    rule.actions.push_back(Action::add_score(rng.range(5, 15), "skilled reply"));
    if (auto id = edit.add_rule(rule); !id.ok()) return id.error();
  }
  // Quiz boards start their quiz.
  for (size_t q = 0; q < quizzes.size(); ++q) {
    EventRule rule;
    rule.name = "start-" + quizzes[q].name;
    rule.trigger.type = TriggerType::kClick;
    rule.trigger.object = quiz_boards[q];
    rule.actions.push_back(Action::start_quiz(quizzes[q].id));
    if (auto id = edit.add_rule(rule); !id.ok()) return id.error();
  }
  // Flavor: a welcome message on entering the second path scenario.
  if (path_len > 2) {
    EventRule rule;
    rule.name = "flavor-enter";
    rule.trigger.type = TriggerType::kEnterScenario;
    rule.trigger.scenario = sids[1];
    rule.once = true;
    rule.actions.push_back(Action::show_message("You reached " + names[1]));
    if (auto id = edit.add_rule(rule); !id.ok()) return id.error();
  }
  // Completion: entering the terminal scenario awards the trophy and ends
  // the game successfully.
  {
    EventRule rule;
    rule.name = "finish";
    rule.trigger.type = TriggerType::kEnterScenario;
    rule.trigger.scenario = sids[static_cast<size_t>(terminal)];
    rule.once = true;
    rule.actions.push_back(Action::add_score(50, "course complete"));
    rule.actions.push_back(Action::grant_reward(trophy));
    rule.actions.push_back(Action::end_game(true));
    if (auto id = edit.add_rule(rule); !id.ok()) return id.error();
  }

  // --- reward rules across all 10 trigger kinds ----------------------------
  {
    using rewards::RewardRule;
    using rewards::TriggerKind;
    std::vector<RewardRule> reward_rules;
    for (int i = 0; i < params.reward_rule_count; ++i) {
      const auto kind = static_cast<TriggerKind>(
          i < static_cast<int>(rewards::kTriggerKindCount)
              ? i
              : static_cast<int>(rng.below(rewards::kTriggerKindCount)));
      RewardRule rule;
      rule.id = static_cast<u32>(i + 1);
      rule.trigger = kind;
      rule.badge = std::string("badge-") + rewards::trigger_kind_name(kind) +
                   "-" + std::to_string(i);
      rule.bonus_points = rng.range(0, 15);
      rule.description = "generated rule " + std::to_string(i);
      switch (kind) {
        case TriggerKind::kScenarioEntered:
          rule.target = names[rng.below(static_cast<u64>(path_len))];
          break;
        case TriggerKind::kScenariosExplored:
          rule.threshold = rng.range(2, params.scenario_count);
          break;
        case TriggerKind::kGameCompleted:
          break;
        case TriggerKind::kObjectInteracted:
          rule.threshold = rng.range(3, 8);
          break;
        case TriggerKind::kItemCollected: {
          const GateItem* first = nullptr;
          for (const GateItem& item : gate_items) {
            if (item.id.valid() && first == nullptr) first = &item;
          }
          if (first != nullptr && rng.chance(0.5)) rule.target = first->name;
          break;
        }
        case TriggerKind::kItemUsed:
          break;
        case TriggerKind::kDialogueDecision:
          if (!dialogues.empty()) rule.target = dialogues[0].good_text;
          break;
        case TriggerKind::kQuizPassed:
          if (!quizzes.empty()) rule.target = quizzes[0].name;
          break;
        case TriggerKind::kScoreReached:
          rule.threshold = rng.range(10, 60);
          break;
        case TriggerKind::kInteractionStreak:
          rule.threshold = rng.range(3, 6);
          rule.window = seconds(rng.range(2, 5));
          break;
      }
      reward_rules.push_back(std::move(rule));
    }
    auto set = rewards::RewardRuleSet::create(std::move(reward_rules));
    if (!set.ok()) return set.error();
    course.reward_rules = std::move(set.value());
  }

  // --- internal gate: the generated project must always be bundleable -----
  for (const LintIssue& issue : project.lint()) {
    if (issue.level == LintLevel::kError) {
      return internal_error("generated project fails lint: " + issue.message);
    }
  }

  // --- solver script (the completability witness) --------------------------
  InputScript& solver = course.solver;
  for (int f = 0; f < terminal; ++f) {
    const NodePlan& node = nodes[static_cast<size_t>(f)];
    for (const std::string& pickup : node.pickup_objects) {
      solver.push_back(ScriptStep::click(pickup));
    }
    for (const auto& [a, b] : node.combines_after) {
      solver.push_back(ScriptStep::combine(a, b));
    }
    for (int b : node.branches) {
      const BranchPlan& branch = branches[static_cast<size_t>(b)];
      solver.push_back(ScriptStep::click(branch.visit_button));
      for (const std::string& pickup : branch.pickup_objects) {
        solver.push_back(ScriptStep::click(pickup));
      }
      if (!branch.examine_decoy.empty()) {
        solver.push_back(ScriptStep::examine(branch.examine_decoy));
      }
      solver.push_back(ScriptStep::click(branch.return_button));
    }
    for (const NpcPlan& npc : node.npcs) {
      solver.push_back(ScriptStep::click(npc.object_name));
      solver.push_back(ScriptStep::choose(npc.good_choice));
      for (int a = 0; a < npc.advances; ++a) {
        solver.push_back(ScriptStep::advance());
      }
    }
    for (const QuizAtNode& quiz : node.quizzes) {
      solver.push_back(ScriptStep::click(quiz.board_name));
      for (size_t answer : quiz.answers) {
        solver.push_back(ScriptStep::answer_quiz(answer));
      }
    }
    if (!node.examine_decoy.empty()) {
      solver.push_back(ScriptStep::examine(node.examine_decoy));
    }
    if (rng.chance(0.25)) {
      solver.push_back(ScriptStep::wait(milliseconds(300)));
    }
    if (!node.door_object.empty()) {
      solver.push_back(ScriptStep::use_item(node.door_item, node.door_object));
    } else {
      solver.push_back(ScriptStep::click(node.go_button));
    }
  }

  return course;
}

u64 corpus_course_seed(u64 corpus_seed, int index) {
  u64 state =
      corpus_seed + 0x9e3779b97f4a7c15ULL * (static_cast<u64>(index) + 1);
  return splitmix64(state);
}

GenParams corpus_course_params(u64 corpus_seed, int index) {
  Rng rng(corpus_course_seed(corpus_seed, index) ^ 0xa5a5a5a55a5a5a5aULL);
  return random_params(rng);
}

Result<std::vector<GeneratedCourse>> generate_corpus(u64 seed, int count,
                                                     int worker_threads) {
  if (count < 0) return invalid_argument("corpus count must be >= 0");
  std::vector<GeneratedCourse> corpus(static_cast<size_t>(count));
  std::vector<Status> statuses(static_cast<size_t>(count));
  const auto build_one = [&](int i) {
    auto course = generate_course(corpus_course_params(seed, i),
                                  corpus_course_seed(seed, i));
    if (!course.ok()) {
      statuses[static_cast<size_t>(i)] = course.error();
      return;
    }
    corpus[static_cast<size_t>(i)] = std::move(course.value());
  };
  if (worker_threads > 0 && count > 1) {
    ThreadPool pool(static_cast<unsigned>(worker_threads));
    pool.parallel_for(0, count, build_one, /*grain=*/1);
  } else {
    for (int i = 0; i < count; ++i) build_one(i);
  }
  for (const Status& st : statuses) {
    if (!st.ok()) return st.error();
  }
  return corpus;
}

GenParams shrink_params(
    const GenParams& failing, u64 seed,
    const std::function<bool(const GenParams&, u64)>& still_fails) {
  struct Field {
    int GenParams::*member;
    int min;
  };
  constexpr std::array<Field, 10> kFields = {{
      {&GenParams::branch_count, 0},
      {&GenParams::puzzle_chain, 0},
      {&GenParams::dialogue_count, 0},
      {&GenParams::quiz_count, 0},
      {&GenParams::decoy_objects, 0},
      {&GenParams::scenario_count, 2},
      {&GenParams::reward_rule_count, 1},
      {&GenParams::frames_per_scene, 2},
      {&GenParams::frame_width, 96},
      {&GenParams::frame_height, 72},
  }};

  GenParams best = failing;
  bool changed = true;
  int passes = 0;
  while (changed && passes++ < 6) {
    changed = false;
    for (const Field& field : kFields) {
      int lo = field.min;
      int hi = best.*(field.member);
      // Binary search for the smallest value of this field that still
      // reproduces the failure (holding every other field fixed).
      while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        GenParams candidate = best;
        candidate.*(field.member) = mid;
        if (candidate.validate().ok() && still_fails(candidate, seed)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      GenParams candidate = best;
      candidate.*(field.member) = hi;
      if (hi < best.*(field.member) && candidate.validate().ok() &&
          still_fails(candidate, seed)) {
        best = candidate;
        changed = true;
      }
    }
  }
  return best;
}

Result<std::string> write_failure_dump(const std::string& dir,
                                       const GeneratedCourse& course,
                                       const std::string& property) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return io_error("cannot create " + dir + ": " + ec.message());

  Json dump = Json::object();
  JsonObject& fields = dump.mutable_object();
  fields.set("property", Json(property));
  fields.set("seed", Json(std::to_string(course.seed)));
  fields.set("params", course.params.to_json());
  fields.set("project_text", Json(save_project_text(course.project)));
  const std::string text = dump.dump(2) + "\n";
  const std::string path =
      dir + "/" + property + "-" + std::to_string(course.seed) + ".json";
  const auto* bytes = reinterpret_cast<const u8*>(text.data());
  if (auto st =
          write_binary_file_atomic(path, std::span<const u8>(bytes, text.size()));
      !st.ok()) {
    return st.error();
  }
  return path;
}

Result<FailureDump> read_failure_dump(const std::string& path) {
  auto bytes = read_binary_file(path);
  if (!bytes.ok()) return bytes.error();
  const std::string text(bytes.value().begin(), bytes.value().end());
  auto json = Json::parse(text);
  if (!json.ok()) return json.error();
  FailureDump dump;
  dump.property = json.value()["property"].as_string();
  auto params = GenParams::from_json(json.value()["params"]);
  if (!params.ok()) return params.error();
  dump.params = params.value();
  dump.seed = std::strtoull(json.value()["seed"].as_string().c_str(), nullptr, 10);
  dump.project_text = json.value()["project_text"].as_string();
  return dump;
}

}  // namespace vgbl::gen
