#include "runtime/recorder.hpp"

namespace vgbl {

std::string SessionRecorder::object_name_at(Point canvas_point) const {
  const ObjectId id = session_->object_at(canvas_point);
  if (!id.valid()) return {};
  const InteractiveObject* obj = session_->bundle().find_object(id);
  return obj ? obj->name : std::string{};
}

void SessionRecorder::record_gap() {
  const MicroTime now = clock_->now();
  if (now > last_event_) {
    script_.push_back(ScriptStep::wait(now - last_event_));
  }
  last_event_ = now;
}

Status SessionRecorder::click(Point canvas_point) {
  record_gap();
  const std::string name = object_name_at(canvas_point);
  auto st = session_->click(canvas_point);
  if (st.ok()) {
    script_.push_back(name.empty() ? ScriptStep::click_at(canvas_point)
                                   : ScriptStep::click(name));
  }
  return st;
}

Status SessionRecorder::examine(Point canvas_point) {
  record_gap();
  const std::string name = object_name_at(canvas_point);
  auto st = session_->examine(canvas_point);
  if (st.ok() && !name.empty()) {
    script_.push_back(ScriptStep::examine(name));
  }
  return st;
}

Status SessionRecorder::drag_to_inventory(const std::string& object_name) {
  record_gap();
  Point from{};
  bool found = false;
  for (const auto* o : session_->visible_objects()) {
    if (o->name == object_name) {
      const Point c = o->placement.rect.center();
      const Point origin = session_->ui().layout().video_area.origin();
      from = {c.x + origin.x, c.y + origin.y};
      found = true;
    }
  }
  if (!found) return not_found("no visible object '" + object_name + "'");
  auto st = session_->drag(from,
                           session_->ui().layout().inventory_window.center());
  if (st.ok()) script_.push_back(ScriptStep::drag_to_inventory(object_name));
  return st;
}

Status SessionRecorder::use_item_on(const std::string& item_name,
                                    const std::string& object_name) {
  record_gap();
  const ItemDef* item = session_->bundle().items.find_by_name(item_name);
  if (!item) return not_found("no item '" + item_name + "'");
  Point at{};
  bool found = false;
  for (const auto* o : session_->visible_objects()) {
    if (o->name == object_name) {
      const Point c = o->placement.rect.center();
      const Point origin = session_->ui().layout().video_area.origin();
      at = {c.x + origin.x, c.y + origin.y};
      found = true;
    }
  }
  if (!found) return not_found("no visible object '" + object_name + "'");
  auto st = session_->use_item_on(item->id, at);
  if (st.ok()) script_.push_back(ScriptStep::use_item(item_name, object_name));
  return st;
}

Status SessionRecorder::combine(const std::string& item_a,
                                const std::string& item_b) {
  record_gap();
  const ItemDef* a = session_->bundle().items.find_by_name(item_a);
  const ItemDef* b = session_->bundle().items.find_by_name(item_b);
  if (!a || !b) return not_found("unknown item in combine");
  auto st = session_->combine_items(a->id, b->id);
  if (st.ok()) script_.push_back(ScriptStep::combine(item_a, item_b));
  return st;
}

Status SessionRecorder::choose_dialogue(size_t index) {
  record_gap();
  auto st = session_->choose_dialogue(index);
  if (st.ok()) script_.push_back(ScriptStep::choose(index));
  return st;
}

Status SessionRecorder::advance_dialogue() {
  record_gap();
  auto st = session_->advance_dialogue();
  if (st.ok()) script_.push_back(ScriptStep::advance());
  return st;
}

Status SessionRecorder::answer_quiz(size_t option) {
  record_gap();
  auto st = session_->answer_quiz(option);
  if (st.ok()) script_.push_back(ScriptStep::answer_quiz(option));
  return st;
}

void SessionRecorder::wait(MicroTime duration) {
  clock_->advance(duration);
  session_->tick();
  // Folded into the next record_gap(); nothing to do now.
}

namespace {

const char* op_name(ScriptStep::Op op) {
  switch (op) {
    case ScriptStep::Op::kClickObject:
      return "click";
    case ScriptStep::Op::kExamineObject:
      return "examine";
    case ScriptStep::Op::kDragObjectToInventory:
      return "drag_to_inventory";
    case ScriptStep::Op::kUseItemOn:
      return "use_item";
    case ScriptStep::Op::kCombineItems:
      return "combine";
    case ScriptStep::Op::kChooseDialogue:
      return "choose";
    case ScriptStep::Op::kAdvanceDialogue:
      return "advance";
    case ScriptStep::Op::kAnswerQuiz:
      return "answer_quiz";
    case ScriptStep::Op::kWait:
      return "wait";
    case ScriptStep::Op::kClickPoint:
      return "click_at";
  }
  return "?";
}

Result<ScriptStep::Op> op_from_name(const std::string& name) {
  for (u8 i = 0; i <= static_cast<u8>(ScriptStep::Op::kClickPoint); ++i) {
    const auto op = static_cast<ScriptStep::Op>(i);
    if (name == op_name(op)) return op;
  }
  return corrupt_data("unknown script op '" + name + "'");
}

}  // namespace

Json script_to_json(const InputScript& script) {
  JsonArray steps;
  for (const auto& s : script) {
    Json sj = Json::object();
    auto& o = sj.mutable_object();
    o.set("op", Json(op_name(s.op)));
    if (!s.object_name.empty()) o.set("object", Json(s.object_name));
    if (!s.item_name.empty()) o.set("item", Json(s.item_name));
    if (!s.second_item_name.empty()) {
      o.set("second_item", Json(s.second_item_name));
    }
    if (s.op == ScriptStep::Op::kChooseDialogue ||
        s.op == ScriptStep::Op::kAnswerQuiz) {
      o.set("choice", Json(static_cast<i64>(s.choice)));
    }
    if (s.wait_time != 0) o.set("wait_us", Json(s.wait_time));
    if (s.op == ScriptStep::Op::kClickPoint) {
      o.set("x", Json(s.point.x));
      o.set("y", Json(s.point.y));
    }
    steps.push_back(std::move(sj));
  }
  Json out = Json::object();
  out.mutable_object().set("steps", Json(std::move(steps)));
  return out;
}

Result<InputScript> script_from_json(const Json& json) {
  if (!json.is_object()) return corrupt_data("script must be an object");
  InputScript script;
  for (const auto& sj : json["steps"].as_array()) {
    auto op = op_from_name(sj["op"].as_string());
    if (!op.ok()) return op.error();
    ScriptStep step;
    step.op = op.value();
    step.object_name = sj["object"].as_string();
    step.item_name = sj["item"].as_string();
    step.second_item_name = sj["second_item"].as_string();
    step.choice = static_cast<size_t>(sj["choice"].as_int());
    step.wait_time = sj["wait_us"].as_int();
    step.point = {static_cast<i32>(sj["x"].as_int()),
                  static_cast<i32>(sj["y"].as_int())};
    script.push_back(std::move(step));
  }
  return script;
}

}  // namespace vgbl
