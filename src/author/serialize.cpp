#include "author/serialize.hpp"

namespace vgbl {
namespace {

Json color_to_json(Color c) {
  JsonArray a{Json(static_cast<i64>(c.r)), Json(static_cast<i64>(c.g)),
              Json(static_cast<i64>(c.b))};
  return Json(std::move(a));
}

Result<Color> color_from_json(const Json& json) {
  const auto& a = json.as_array();
  if (!json.is_array() || a.size() != 3) {
    return corrupt_data("color must be a 3-element array");
  }
  return Color{static_cast<u8>(a[0].as_int()), static_cast<u8>(a[1].as_int()),
               static_cast<u8>(a[2].as_int())};
}

Json rect_to_json(const Rect& r) {
  JsonArray a{Json(r.x), Json(r.y), Json(r.width), Json(r.height)};
  return Json(std::move(a));
}

Result<Rect> rect_from_json(const Json& json) {
  const auto& a = json.as_array();
  if (!json.is_array() || a.size() != 4) {
    return corrupt_data("rect must be a 4-element array");
  }
  return Rect{static_cast<i32>(a[0].as_int()), static_cast<i32>(a[1].as_int()),
              static_cast<i32>(a[2].as_int()), static_cast<i32>(a[3].as_int())};
}

}  // namespace

Json clip_spec_to_json(const ClipSpec& spec) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("width", Json(spec.width));
  o.set("height", Json(spec.height));
  o.set("fps", Json(spec.fps));
  o.set("seed", Json(static_cast<i64>(spec.seed)));
  JsonArray scenes;
  for (const auto& s : spec.scenes) {
    Json sj = Json::object();
    auto& so = sj.mutable_object();
    so.set("name", Json(s.name));
    so.set("duration_frames", Json(s.duration_frames));
    Json style = Json::object();
    auto& st = style.mutable_object();
    st.set("background_top", color_to_json(s.style.background_top));
    st.set("background_bottom", color_to_json(s.style.background_bottom));
    st.set("prop_count", Json(s.style.prop_count));
    st.set("character_count", Json(s.style.character_count));
    st.set("motion_speed", Json(s.style.motion_speed));
    st.set("noise_level", Json(s.style.noise_level));
    so.set("style", std::move(style));
    scenes.push_back(std::move(sj));
  }
  o.set("scenes", Json(std::move(scenes)));
  return out;
}

Result<ClipSpec> clip_spec_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("clip spec must be an object");
  ClipSpec spec;
  spec.width = static_cast<i32>(json["width"].as_int());
  spec.height = static_cast<i32>(json["height"].as_int());
  spec.fps = static_cast<int>(json["fps"].as_int(24));
  spec.seed = static_cast<u64>(json["seed"].as_int(1));
  for (const auto& sj : json["scenes"].as_array()) {
    SceneSpec scene;
    scene.name = sj["name"].as_string();
    scene.duration_frames = static_cast<int>(sj["duration_frames"].as_int());
    const Json& st = sj["style"];
    auto top = color_from_json(st["background_top"]);
    auto bottom = color_from_json(st["background_bottom"]);
    if (!top.ok()) return top.error();
    if (!bottom.ok()) return bottom.error();
    scene.style.background_top = top.value();
    scene.style.background_bottom = bottom.value();
    scene.style.prop_count = static_cast<int>(st["prop_count"].as_int());
    scene.style.character_count = static_cast<int>(st["character_count"].as_int());
    scene.style.motion_speed = st["motion_speed"].as_double(2.0);
    scene.style.noise_level = st["noise_level"].as_double(0.0);
    spec.scenes.push_back(std::move(scene));
  }
  return spec;
}

Json condition_to_json(const Condition& c) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("op", Json(condition_op_name(c.op)));
  if (c.item.valid()) o.set("item", Json(c.item.value));
  if (c.scenario.valid()) o.set("scenario", Json(c.scenario.value));
  if (!c.flag.empty()) o.set("flag", Json(c.flag));
  if (c.value != 0) o.set("value", Json(c.value));
  if (!c.children.empty()) {
    JsonArray children;
    for (const auto& child : c.children) {
      children.push_back(condition_to_json(child));
    }
    o.set("children", Json(std::move(children)));
  }
  return out;
}

Result<Condition> condition_from_json(const Json& json) {
  if (json.is_null()) return Condition::always();
  if (!json.is_object()) return corrupt_data("condition must be an object");
  auto op = condition_op_from_name(json["op"].as_string());
  if (!op.ok()) return op.error();
  Condition c;
  c.op = op.value();
  c.item = ItemId{static_cast<u32>(json["item"].as_int())};
  c.scenario = ScenarioId{static_cast<u32>(json["scenario"].as_int())};
  c.flag = json["flag"].as_string();
  c.value = json["value"].as_int();
  for (const auto& child : json["children"].as_array()) {
    auto parsed = condition_from_json(child);
    if (!parsed.ok()) return parsed.error();
    c.children.push_back(std::move(parsed.value()));
  }
  return c;
}

Json trigger_to_json(const Trigger& t) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("type", Json(trigger_type_name(t.type)));
  if (t.object.valid()) o.set("object", Json(t.object.value));
  if (t.item.valid()) o.set("item", Json(t.item.value));
  if (t.second_item.valid()) o.set("second_item", Json(t.second_item.value));
  if (t.scenario.valid()) o.set("scenario", Json(t.scenario.value));
  if (t.delay != 0) o.set("delay_us", Json(t.delay));
  if (!t.tag.empty()) o.set("tag", Json(t.tag));
  return out;
}

Result<Trigger> trigger_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("trigger must be an object");
  auto type = trigger_type_from_name(json["type"].as_string());
  if (!type.ok()) return type.error();
  Trigger t;
  t.type = type.value();
  t.object = ObjectId{static_cast<u32>(json["object"].as_int())};
  t.item = ItemId{static_cast<u32>(json["item"].as_int())};
  t.second_item = ItemId{static_cast<u32>(json["second_item"].as_int())};
  t.scenario = ScenarioId{static_cast<u32>(json["scenario"].as_int())};
  t.delay = json["delay_us"].as_int();
  t.tag = json["tag"].as_string();
  return t;
}

Json action_to_json(const Action& a) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("type", Json(action_type_name(a.type)));
  if (a.scenario.valid()) o.set("scenario", Json(a.scenario.value));
  if (a.object.valid()) o.set("object", Json(a.object.value));
  if (a.item.valid()) o.set("item", Json(a.item.value));
  if (a.dialogue.valid()) o.set("dialogue", Json(a.dialogue.value));
  if (a.quiz.valid()) o.set("quiz", Json(a.quiz.value));
  if (!a.text.empty()) o.set("text", Json(a.text));
  if (a.amount != 0) o.set("amount", Json(a.amount));
  if (a.type == ActionType::kEndGame) o.set("success", Json(a.success_outcome));
  return out;
}

Result<Action> action_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("action must be an object");
  auto type = action_type_from_name(json["type"].as_string());
  if (!type.ok()) return type.error();
  Action a;
  a.type = type.value();
  a.scenario = ScenarioId{static_cast<u32>(json["scenario"].as_int())};
  a.object = ObjectId{static_cast<u32>(json["object"].as_int())};
  a.item = ItemId{static_cast<u32>(json["item"].as_int())};
  a.dialogue = DialogueId{static_cast<u32>(json["dialogue"].as_int())};
  a.quiz = QuizId{static_cast<u32>(json["quiz"].as_int())};
  a.text = json["text"].as_string();
  a.amount = json["amount"].as_int();
  a.success_outcome = json["success"].as_bool(true);
  return a;
}

Json rule_to_json(const EventRule& r) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("id", Json(r.id.value));
  o.set("name", Json(r.name));
  if (r.once) o.set("once", Json(true));
  o.set("trigger", trigger_to_json(r.trigger));
  if (!(r.condition == Condition::always())) {
    o.set("condition", condition_to_json(r.condition));
  }
  JsonArray actions;
  for (const auto& a : r.actions) actions.push_back(action_to_json(a));
  o.set("actions", Json(std::move(actions)));
  return out;
}

Result<EventRule> rule_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("rule must be an object");
  EventRule r;
  r.id = RuleId{static_cast<u32>(json["id"].as_int())};
  if (!r.id.valid()) return corrupt_data("rule id missing");
  r.name = json["name"].as_string();
  r.once = json["once"].as_bool(false);
  auto trigger = trigger_from_json(json["trigger"]);
  if (!trigger.ok()) return trigger.error();
  r.trigger = std::move(trigger.value());
  auto condition = condition_from_json(json["condition"]);
  if (!condition.ok()) return condition.error();
  r.condition = std::move(condition.value());
  for (const auto& aj : json["actions"].as_array()) {
    auto action = action_from_json(aj);
    if (!action.ok()) return action.error();
    r.actions.push_back(std::move(action.value()));
  }
  return r;
}

Json dialogue_to_json(const DialogueTree& d) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("id", Json(d.id().value));
  o.set("name", Json(d.name()));
  o.set("entry", Json(d.entry()));
  JsonArray nodes;
  for (const auto& n : d.nodes()) {
    Json nj = Json::object();
    auto& no = nj.mutable_object();
    no.set("id", Json(n.id));
    if (!n.speaker.empty()) no.set("speaker", Json(n.speaker));
    no.set("line", Json(n.line));
    if (n.next_node != kEndDialogue) no.set("next", Json(n.next_node));
    if (!n.action_tag.empty()) no.set("action_tag", Json(n.action_tag));
    if (!n.choices.empty()) {
      JsonArray choices;
      for (const auto& c : n.choices) {
        Json cj = Json::object();
        auto& co = cj.mutable_object();
        co.set("text", Json(c.text));
        if (c.next_node != kEndDialogue) co.set("next", Json(c.next_node));
        if (!c.action_tag.empty()) co.set("action_tag", Json(c.action_tag));
        choices.push_back(std::move(cj));
      }
      no.set("choices", Json(std::move(choices)));
    }
    nodes.push_back(std::move(nj));
  }
  o.set("nodes", Json(std::move(nodes)));
  return out;
}

Result<DialogueTree> dialogue_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("dialogue must be an object");
  const DialogueId id{static_cast<u32>(json["id"].as_int())};
  if (!id.valid()) return corrupt_data("dialogue id missing");
  DialogueTree tree(id, json["name"].as_string());
  for (const auto& nj : json["nodes"].as_array()) {
    DialogueNode n;
    n.id = static_cast<int>(nj["id"].as_int());
    n.speaker = nj["speaker"].as_string();
    n.line = nj["line"].as_string();
    n.next_node = static_cast<int>(nj["next"].as_int(kEndDialogue));
    n.action_tag = nj["action_tag"].as_string();
    for (const auto& cj : nj["choices"].as_array()) {
      DialogueChoice c;
      c.text = cj["text"].as_string();
      c.next_node = static_cast<int>(cj["next"].as_int(kEndDialogue));
      c.action_tag = cj["action_tag"].as_string();
      n.choices.push_back(std::move(c));
    }
    if (auto st = tree.add_node(std::move(n)); !st.ok()) return st.error();
  }
  const int entry = static_cast<int>(json["entry"].as_int(kEndDialogue));
  if (entry != kEndDialogue) {
    if (auto st = tree.set_entry(entry); !st.ok()) return st.error();
  }
  return tree;
}

Json quiz_to_json(const Quiz& q) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("id", Json(q.id().value));
  o.set("name", Json(q.name()));
  if (q.pass_fraction() != 0.6) o.set("pass_fraction", Json(q.pass_fraction()));
  JsonArray questions;
  for (const auto& question : q.questions()) {
    Json qj = Json::object();
    auto& qo = qj.mutable_object();
    qo.set("prompt", Json(question.prompt));
    JsonArray options;
    for (const auto& opt : question.options) options.push_back(Json(opt));
    qo.set("options", Json(std::move(options)));
    qo.set("correct", Json(static_cast<i64>(question.correct_option)));
    if (!question.explanation.empty()) {
      qo.set("explanation", Json(question.explanation));
    }
    if (question.points != 10) qo.set("points", Json(question.points));
    questions.push_back(std::move(qj));
  }
  o.set("questions", Json(std::move(questions)));
  return out;
}

Result<Quiz> quiz_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("quiz must be an object");
  const QuizId id{static_cast<u32>(json["id"].as_int())};
  if (!id.valid()) return corrupt_data("quiz id missing");
  Quiz quiz(id, json["name"].as_string());
  quiz.set_pass_fraction(json["pass_fraction"].as_double(0.6));
  for (const auto& qj : json["questions"].as_array()) {
    QuizQuestion q;
    q.prompt = qj["prompt"].as_string();
    for (const auto& opt : qj["options"].as_array()) {
      q.options.push_back(opt.as_string());
    }
    q.correct_option = static_cast<size_t>(qj["correct"].as_int());
    q.explanation = qj["explanation"].as_string();
    q.points = qj["points"].as_int(10);
    quiz.add_question(std::move(q));
  }
  return quiz;
}

Json object_to_json(const InteractiveObject& o) {
  Json out = Json::object();
  auto& j = out.mutable_object();
  j.set("id", Json(o.id.value));
  j.set("name", Json(o.name));
  j.set("kind", Json(object_kind_name(o.kind)));
  j.set("scenario", Json(o.scenario.value));
  j.set("rect", rect_to_json(o.placement.rect));
  if (o.placement.first_frame != 0) j.set("first_frame", Json(o.placement.first_frame));
  if (o.placement.frame_count >= 0) j.set("frame_count", Json(o.placement.frame_count));
  if (o.placement.z != 0) j.set("z", Json(o.placement.z));
  if (!o.placement.visible) j.set("visible", Json(false));
  if (o.draggable) j.set("draggable", Json(true));
  if (!o.sprite_spec.empty()) j.set("sprite", Json(o.sprite_spec));
  if (!o.description.empty()) j.set("description", Json(o.description));
  if (o.grants_item.valid()) j.set("grants_item", Json(o.grants_item.value));
  if (o.dialogue.valid()) j.set("dialogue", Json(o.dialogue.value));
  if (!o.properties.empty()) j.set("properties", o.properties.to_json());
  return out;
}

Result<InteractiveObject> object_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("object must be an object");
  InteractiveObject o;
  o.id = ObjectId{static_cast<u32>(json["id"].as_int())};
  if (!o.id.valid()) return corrupt_data("object id missing");
  o.name = json["name"].as_string();
  auto kind = object_kind_from_name(json["kind"].as_string());
  if (!kind.ok()) return kind.error();
  o.kind = kind.value();
  o.scenario = ScenarioId{static_cast<u32>(json["scenario"].as_int())};
  auto rect = rect_from_json(json["rect"]);
  if (!rect.ok()) return rect.error();
  o.placement.rect = rect.value();
  o.placement.first_frame = static_cast<int>(json["first_frame"].as_int(0));
  o.placement.frame_count = static_cast<int>(json["frame_count"].as_int(-1));
  o.placement.z = static_cast<i32>(json["z"].as_int(0));
  o.placement.visible = json["visible"].as_bool(true);
  o.draggable = json["draggable"].as_bool(false);
  o.sprite_spec = json["sprite"].as_string();
  if (!o.sprite_spec.empty()) {
    auto sprite = Sprite::from_spec(o.sprite_spec);
    if (!sprite.ok()) return sprite.error();
    o.sprite = std::move(sprite.value());
  }
  o.description = json["description"].as_string();
  o.grants_item = ItemId{static_cast<u32>(json["grants_item"].as_int())};
  o.dialogue = DialogueId{static_cast<u32>(json["dialogue"].as_int())};
  auto props = PropertyBag::from_json(json["properties"]);
  if (!props.ok()) return props.error();
  o.properties = std::move(props.value());
  return o;
}

Json project_to_json(const Project& project) {
  Json out = Json::object();
  auto& o = out.mutable_object();
  o.set("format_version", Json(kProjectFormatVersion));

  Json meta = Json::object();
  auto& m = meta.mutable_object();
  m.set("title", Json(project.meta.title));
  m.set("author", Json(project.meta.author));
  m.set("description", Json(project.meta.description));
  o.set("meta", std::move(meta));

  if (project.clip_spec) o.set("clip", clip_spec_to_json(*project.clip_spec));

  JsonArray segments;
  for (size_t i = 0; i < project.segments.size(); ++i) {
    Json sj = Json::object();
    auto& so = sj.mutable_object();
    so.set("id", Json(i < project.segment_ids.size()
                          ? project.segment_ids[i].value
                          : 0u));
    so.set("name", Json(project.segments[i].suggested_name));
    so.set("first_frame", Json(project.segments[i].first_frame));
    so.set("frame_count", Json(project.segments[i].frame_count));
    segments.push_back(std::move(sj));
  }
  o.set("segments", Json(std::move(segments)));

  JsonArray scenarios;
  for (const auto& s : project.graph.scenarios()) {
    Json sj = Json::object();
    auto& so = sj.mutable_object();
    so.set("id", Json(s.id.value));
    so.set("name", Json(s.name));
    so.set("segment", Json(s.segment.value));
    if (!s.description.empty()) so.set("description", Json(s.description));
    if (s.terminal) so.set("terminal", Json(true));
    scenarios.push_back(std::move(sj));
  }
  o.set("scenarios", Json(std::move(scenarios)));
  if (project.graph.start().valid()) {
    o.set("start_scenario", Json(project.graph.start().value));
  }

  JsonArray transitions;
  for (const auto& t : project.graph.transitions()) {
    Json tj = Json::object();
    auto& to = tj.mutable_object();
    to.set("from", Json(t.from.value));
    to.set("to", Json(t.to.value));
    to.set("label", Json(t.label));
    if (!t.guard_hint.empty()) to.set("guard_hint", Json(t.guard_hint));
    if (t.weight != 1.0) to.set("weight", Json(t.weight));
    transitions.push_back(std::move(tj));
  }
  o.set("transitions", Json(std::move(transitions)));

  JsonArray objects;
  for (const auto& obj : project.objects) objects.push_back(object_to_json(obj));
  o.set("objects", Json(std::move(objects)));

  JsonArray items;
  for (const auto& def : project.items.all()) {
    Json ij = Json::object();
    auto& io = ij.mutable_object();
    io.set("id", Json(def.id.value));
    io.set("name", Json(def.name));
    if (!def.description.empty()) io.set("description", Json(def.description));
    if (!def.icon.empty()) io.set("icon", Json(def.icon));
    if (def.stackable) io.set("stackable", Json(true));
    // max_stack is meaningful independently of stackable (an importer may
    // flip stackable later); write it whenever it differs from the default
    // so the field round-trips for every combination.
    if (def.max_stack != 1) io.set("max_stack", Json(def.max_stack));
    if (def.is_reward) io.set("is_reward", Json(true));
    if (def.bonus_points != 0) io.set("bonus_points", Json(def.bonus_points));
    items.push_back(std::move(ij));
  }
  o.set("items", Json(std::move(items)));

  JsonArray combines;
  for (const auto& c : project.combines.rules()) {
    Json cj = Json::object();
    auto& co = cj.mutable_object();
    co.set("a", Json(c.a.value));
    co.set("b", Json(c.b.value));
    co.set("result", Json(c.result.value));
    if (!c.consume_inputs) co.set("consume_inputs", Json(false));
    if (!c.description.empty()) co.set("description", Json(c.description));
    combines.push_back(std::move(cj));
  }
  o.set("combines", Json(std::move(combines)));

  JsonArray rules;
  for (const auto& r : project.rules) rules.push_back(rule_to_json(r));
  o.set("rules", Json(std::move(rules)));

  JsonArray dialogues;
  for (const auto& d : project.dialogues) dialogues.push_back(dialogue_to_json(d));
  o.set("dialogues", Json(std::move(dialogues)));

  if (!project.quizzes.empty()) {
    JsonArray quizzes;
    for (const auto& q : project.quizzes) quizzes.push_back(quiz_to_json(q));
    o.set("quizzes", Json(std::move(quizzes)));
  }

  return out;
}

std::string save_project_text(const Project& project) {
  return project_to_json(project).dump(2) + "\n";
}

Result<Project> project_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("project must be a JSON object");
  const int version = static_cast<int>(json["format_version"].as_int(1));
  if (version < 1 || version > kProjectFormatVersion) {
    return unsupported("project format version " + std::to_string(version));
  }

  Project p;
  p.meta.title = json["meta"]["title"].as_string();
  p.meta.author = json["meta"]["author"].as_string();
  p.meta.description = json["meta"]["description"].as_string();
  p.meta.format_version = version;

  if (!json["clip"].is_null()) {
    auto spec = clip_spec_from_json(json["clip"]);
    if (!spec.ok()) return spec.error();
    p.clip_spec = std::move(spec.value());
  }

  for (const auto& sj : json["segments"].as_array()) {
    VideoSegment seg;
    seg.suggested_name = sj["name"].as_string();
    seg.first_frame = static_cast<int>(sj["first_frame"].as_int());
    seg.frame_count = static_cast<int>(sj["frame_count"].as_int());
    const SegmentId id{static_cast<u32>(sj["id"].as_int())};
    if (!id.valid()) return corrupt_data("segment id missing");
    p.segments.push_back(std::move(seg));
    p.segment_ids.push_back(id);
    p.segment_id_alloc.reserve(id);
  }

  for (const auto& sj : json["scenarios"].as_array()) {
    Scenario s;
    s.id = ScenarioId{static_cast<u32>(sj["id"].as_int())};
    s.name = sj["name"].as_string();
    s.segment = SegmentId{static_cast<u32>(sj["segment"].as_int())};
    s.description = sj["description"].as_string();
    s.terminal = sj["terminal"].as_bool(false);
    p.scenario_ids.reserve(s.id);
    if (auto st = p.graph.add_scenario(std::move(s)); !st.ok()) {
      return st.error();
    }
  }
  const ScenarioId start{static_cast<u32>(json["start_scenario"].as_int())};
  if (start.valid()) {
    if (auto st = p.graph.set_start(start); !st.ok()) return st.error();
  }

  for (const auto& tj : json["transitions"].as_array()) {
    ScenarioTransition t;
    t.from = ScenarioId{static_cast<u32>(tj["from"].as_int())};
    t.to = ScenarioId{static_cast<u32>(tj["to"].as_int())};
    t.label = tj["label"].as_string();
    t.guard_hint = tj["guard_hint"].as_string();
    t.weight = tj["weight"].as_double(1.0);  // v1 migration: default weight
    if (auto st = p.graph.add_transition(std::move(t)); !st.ok()) {
      return st.error();
    }
  }

  for (const auto& oj : json["objects"].as_array()) {
    auto obj = object_from_json(oj);
    if (!obj.ok()) return obj.error();
    p.object_ids.reserve(obj.value().id);
    p.objects.push_back(std::move(obj.value()));
  }

  for (const auto& ij : json["items"].as_array()) {
    ItemDef def;
    def.id = ItemId{static_cast<u32>(ij["id"].as_int())};
    def.name = ij["name"].as_string();
    def.description = ij["description"].as_string();
    def.icon = ij["icon"].as_string();
    def.stackable = ij["stackable"].as_bool(false);
    def.max_stack = static_cast<int>(ij["max_stack"].as_int(1));
    def.is_reward = ij["is_reward"].as_bool(false);
    def.bonus_points = ij["bonus_points"].as_int(0);
    p.item_ids.reserve(def.id);
    if (auto st = p.items.add(std::move(def)); !st.ok()) return st.error();
  }

  for (const auto& cj : json["combines"].as_array()) {
    CombineRule c;
    c.a = ItemId{static_cast<u32>(cj["a"].as_int())};
    c.b = ItemId{static_cast<u32>(cj["b"].as_int())};
    c.result = ItemId{static_cast<u32>(cj["result"].as_int())};
    c.consume_inputs = cj["consume_inputs"].as_bool(true);
    c.description = cj["description"].as_string();
    p.combines.add(std::move(c));
  }

  for (const auto& rj : json["rules"].as_array()) {
    auto rule = rule_from_json(rj);
    if (!rule.ok()) return rule.error();
    p.rule_ids.reserve(rule.value().id);
    p.rules.push_back(std::move(rule.value()));
  }

  for (const auto& dj : json["dialogues"].as_array()) {
    auto dialogue = dialogue_from_json(dj);
    if (!dialogue.ok()) return dialogue.error();
    p.dialogue_ids.reserve(dialogue.value().id());
    p.dialogues.push_back(std::move(dialogue.value()));
  }

  for (const auto& qj : json["quizzes"].as_array()) {
    auto quiz = quiz_from_json(qj);
    if (!quiz.ok()) return quiz.error();
    p.quiz_ids.reserve(quiz.value().id());
    p.quizzes.push_back(std::move(quiz.value()));
  }

  return p;
}

Result<Project> load_project_text(const std::string& text) {
  auto json = Json::parse(text);
  if (!json.ok()) return json.error();
  return project_from_json(json.value());
}

}  // namespace vgbl
