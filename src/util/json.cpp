#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/text.hpp"

namespace vgbl {

void JsonObject::set(std::string key, Json value) {
  for (auto& m : members_) {
    if (m.first == key) {
      m.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

const Json* JsonObject::find(std::string_view key) const {
  for (const auto& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

JsonArray& Json::mutable_array() {
  if (kind_ != Kind::kArray) {
    kind_ = Kind::kArray;
    array_ = std::make_shared<JsonArray>();
  }
  return *array_;
}

JsonObject& Json::mutable_object() {
  if (kind_ != Kind::kObject) {
    kind_ = Kind::kObject;
    object_ = std::make_shared<JsonObject>();
  }
  return *object_;
}

const JsonArray& Json::as_array() const {
  static const JsonArray kEmpty;
  return is_array() ? *array_ : kEmpty;
}

const JsonObject& Json::as_object() const {
  static const JsonObject kEmpty;
  return is_object() ? *object_ : kEmpty;
}

const Json& Json::operator[](std::string_view key) const {
  static const Json kNull;
  if (!is_object()) return kNull;
  const Json* v = object_->find(key);
  return v ? *v : kNull;
}

namespace {

/// Recursive-descent JSON parser with a depth limit to bound stack use on
/// hostile inputs (failure-injection tests feed arbitrary bytes here).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    auto v = value(0);
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Result<Json> value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"': {
        auto s = string();
        if (!s.ok()) return s.error();
        return Json(std::move(s.value()));
      }
      case 't':
        return literal("true", Json(true));
      case 'f':
        return literal("false", Json(false));
      case 'n':
        return literal("null", Json());
      default:
        return number();
    }
  }

  Result<Json> literal(std::string_view word, Json result) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return result;
  }

  Result<Json> object(int depth) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') return fail("expected member name");
      auto key = string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (peek() != ':') return fail("expected ':' after member name");
      ++pos_;
      auto val = value(depth + 1);
      if (!val.ok()) return val;
      obj.set(std::move(key.value()), std::move(val.value()));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(obj));
      }
      return fail("expected ',' or '}' in object");
    }
  }

  Result<Json> array(int depth) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      auto val = value(depth + 1);
      if (!val.ok()) return val;
      arr.push_back(std::move(val.value()));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(arr));
      }
      return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            u32 cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9')
                cp |= static_cast<u32>(h - '0');
              else if (h >= 'a' && h <= 'f')
                cp |= static_cast<u32>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                cp |= static_cast<u32>(h - 'A' + 10);
              else
                return fail("bad hex digit in \\u escape");
            }
            // Encode the BMP code point as UTF-8 (surrogate pairs are kept
            // as-is; the project format only emits BMP escapes).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Result<Json> number() {
    const size_t start = pos_;
    bool is_double = false;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return fail("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      char* end = nullptr;
      const f64 v = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return fail("invalid number");
      return Json(v);
    }
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    return Json(static_cast<i64>(v));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Error fail(std::string_view what) const {
    size_t line = 1;
    size_t col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return corrupt_data(std::string(what) + " at line " + std::to_string(line) +
                        ", column " + std::to_string(col));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void append_number(std::string& out, f64 v) {
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    // %.17g prints whole values without a fraction ("2", not "2.0"), which
    // the parser would re-type as kInt and break typed round-trips (e.g.
    // PropertyBag doubles). Force a marker that keeps the token a double.
    if (std::string_view(buf).find_first_of(".eE") == std::string_view::npos) {
      out += ".0";
    }
  } else {
    out += "null";  // JSON cannot represent inf/nan
  }
}

}  // namespace

Result<Json> Json::parse(std::string_view text) { return Parser(text).parse(); }

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };

  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      out += std::to_string(int_);
      break;
    case Kind::kDouble:
      append_number(out, double_);
      break;
    case Kind::kString:
      out += '"';
      out += escape_json(string_);
      out += '"';
      break;
    case Kind::kArray: {
      const auto& arr = *array_;
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        arr[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      const auto& obj = *object_;
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj.members()) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += '"';
        out += escape_json(key);
        out += "\":";
        if (pretty) out += ' ';
        value.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace vgbl
