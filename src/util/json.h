#ifndef GVA_UTIL_JSON_H_
#define GVA_UTIL_JSON_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace gva {

/// A parsed JSON document node. The server's request bodies are JSON and
/// the library takes no third-party dependencies, so this is the minimal
/// tree representation the daemons parse into: null / bool / number /
/// string / array / object, with objects kept as insertion-ordered
/// key-value vectors (deterministic iteration — no unordered containers
/// feeding output, per the project lint).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value) {
    JsonValue v;
    v.type_ = Type::kBool;
    v.bool_ = value;
    return v;
  }
  static JsonValue Number(double value) {
    JsonValue v;
    v.type_ = Type::kNumber;
    v.number_ = value;
    return v;
  }
  static JsonValue String(std::string value) {
    JsonValue v;
    v.type_ = Type::kString;
    v.string_ = std::move(value);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one returns the type's zero value
  /// (callers validate with is_*() / Find() first).
  bool as_bool() const { return is_bool() ? bool_ : false; }
  double as_number() const { return is_number() ? number_ : 0.0; }
  const std::string& as_string() const { return string_; }

  /// Array elements (empty unless is_array()).
  const std::vector<JsonValue>& items() const { return items_; }
  std::vector<JsonValue>& items() { return items_; }

  /// Object members in insertion order (empty unless is_object()).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// First member with the given key, or nullptr. Linear scan: request
  /// bodies are a handful of keys.
  const JsonValue* Find(std::string_view key) const;

  /// Builder helpers for writers.
  void Append(JsonValue value) { items_.push_back(std::move(value)); }
  void Set(std::string key, JsonValue value) {
    members_.emplace_back(std::move(key), std::move(value));
  }

  /// Serializes back to compact JSON. Numbers render with %.17g so a
  /// parse → dump → parse round trip is bit-exact for doubles — the
  /// server's results must compare bit-identical to the CLI's.
  std::string Dump() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses a complete JSON document. Strict: one top-level value, no
/// trailing garbage, no comments, no trailing commas; \uXXXX escapes are
/// decoded to UTF-8 (surrogate pairs included). Nesting is capped (64
/// levels) so a hostile body cannot blow the stack, and a number beyond
/// double range (1e999) is rejected, so every parsed number is finite.
/// InvalidArgument on any violation, with a byte offset in the message.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included). Control characters become \u00XX.
std::string JsonEscape(std::string_view text);

/// Formats a double the way Dump() does: %.17g, with non-finite values
/// mapped to null (JSON has no NaN/Inf).
std::string JsonNumber(double value);

}  // namespace gva

#endif  // GVA_UTIL_JSON_H_
