// Typed property bag for interactive objects. The object editor (paper
// §4.2) lets designers "set the properties and events of objects"; this is
// the property half. Values round-trip through the JSON project format.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <variant>

#include "util/json.hpp"
#include "util/types.hpp"

namespace vgbl {

using PropertyValue = std::variant<bool, i64, f64, std::string>;

class PropertyBag {
 public:
  void set(std::string key, PropertyValue value) {
    values_[std::move(key)] = std::move(value);
  }
  void set_bool(std::string key, bool v) { set(std::move(key), v); }
  void set_int(std::string key, i64 v) { set(std::move(key), v); }
  void set_double(std::string key, f64 v) { set(std::move(key), v); }
  void set_string(std::string key, std::string v) {
    set(std::move(key), std::move(v));
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }
  bool remove(const std::string& key) { return values_.erase(key) > 0; }

  [[nodiscard]] std::optional<PropertyValue> get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback = false) const;
  [[nodiscard]] i64 get_int(const std::string& key, i64 fallback = 0) const;
  [[nodiscard]] f64 get_double(const std::string& key, f64 fallback = 0) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback = "") const;

  [[nodiscard]] size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const std::map<std::string, PropertyValue>& values() const {
    return values_;
  }

  [[nodiscard]] Json to_json() const;
  static Result<PropertyBag> from_json(const Json& json);

  bool operator==(const PropertyBag&) const = default;

 private:
  std::map<std::string, PropertyValue> values_;
};

}  // namespace vgbl
