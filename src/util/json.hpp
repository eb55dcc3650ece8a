// Minimal JSON document model + parser + writer, used by the human-readable
// `.vgbl` project format. Object members preserve insertion order so saved
// projects diff cleanly under version control.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

class Json;

using JsonArray = std::vector<Json>;
using JsonMember = std::pair<std::string, Json>;

/// Order-preserving object representation. Lookup is linear — project files
/// have small objects and parse time is dominated by the lexer anyway.
class JsonObject {
 public:
  /// Sets (or replaces) a member, preserving first-insertion order.
  void set(std::string key, Json value);

  /// Returns the member value or nullptr.
  [[nodiscard]] const Json* find(std::string_view key) const;

  [[nodiscard]] const std::vector<JsonMember>& members() const { return members_; }
  [[nodiscard]] size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }

 private:
  std::vector<JsonMember> members_;
};

/// A JSON value: null, bool, integer, double, string, array or object.
/// Integers are kept distinct from doubles so ids round-trip exactly.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}            // NOLINT
  Json(i64 v) : kind_(Kind::kInt), int_(v) {}               // NOLINT
  Json(int v) : Json(static_cast<i64>(v)) {}                // NOLINT
  Json(u32 v) : Json(static_cast<i64>(v)) {}                // NOLINT
  Json(f64 v) : kind_(Kind::kDouble), double_(v) {}         // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}             // NOLINT
  Json(JsonArray a)                                         // NOLINT
      : kind_(Kind::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}
  Json(JsonObject o)                                        // NOLINT
      : kind_(Kind::kObject), object_(std::make_shared<JsonObject>(std::move(o))) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::kInt; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] i64 as_int(i64 fallback = 0) const {
    if (kind_ == Kind::kInt) return int_;
    if (kind_ == Kind::kDouble) return static_cast<i64>(double_);
    return fallback;
  }
  [[nodiscard]] f64 as_double(f64 fallback = 0) const {
    if (kind_ == Kind::kDouble) return double_;
    if (kind_ == Kind::kInt) return static_cast<f64>(int_);
    return fallback;
  }
  [[nodiscard]] const std::string& as_string() const {
    static const std::string kEmpty;
    return is_string() ? string_ : kEmpty;
  }

  /// Mutable array access; converts a null value into an empty array.
  JsonArray& mutable_array();
  /// Mutable object access; converts a null value into an empty object.
  JsonObject& mutable_object();

  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member lookup; returns a shared null Json when missing or when
  /// this value is not an object, so lookups chain safely.
  [[nodiscard]] const Json& operator[](std::string_view key) const;

  /// Serialises this document. `indent` < 0 produces compact one-line form;
  /// otherwise pretty-printed with `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Parses a JSON document; reports line/column on failure.
  static Result<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  i64 int_ = 0;
  f64 double_ = 0;
  std::string string_;
  // shared_ptr keeps Json cheap to copy; documents are treated as immutable
  // after construction except through mutable_* accessors (copy-on-write is
  // NOT provided — callers building documents own them uniquely).
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

}  // namespace vgbl
