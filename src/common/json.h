// Minimal recursive-descent JSON parser and writer (RFC 8259 subset, no
// external deps).
//
// Exists for the offline tooling side of telemetry (`tools/dcc_why` parses
// the audit and trace JSONL dumps and the profile JSON back) and for the
// declarative scenario specs (`src/scenario` parses, validates and re-emits
// ScenarioSpec documents). It is NOT a general-purpose library: numbers are
// held as doubles, strings support the standard escapes ("\uXXXX" is decoded
// as UTF-8 for the BMP and replaced with '?' outside it), and inputs nested
// deeper than kMaxDepth are rejected rather than recursed into.
//
// Writing: Value exposes a small builder API (factories + Set/PushBack) and
// Write() serializes with stable key order (objects are sorted maps), so
// parse → Write → parse round-trips to an equal Value.

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dcc {
namespace json {

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() = default;

  // --- builders --------------------------------------------------------------
  static Value OfBool(bool b);
  static Value OfNumber(double n);
  static Value OfString(std::string s);
  static Value MakeArray();
  static Value MakeObject();

  // Appends to an array value (converts a null value into an array first;
  // any other type is overwritten with a fresh array).
  void PushBack(Value v);
  // Sets an object member (converts a null value into an object first; any
  // other type is overwritten with a fresh object).
  void Set(const std::string& key, Value v);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsNumber(double fallback = 0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::map<std::string, Value>& AsObject() const { return object_; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;
  // Convenience accessors over Find.
  double Number(const std::string& key, double fallback = 0) const;
  std::string String(const std::string& key,
                     const std::string& fallback = "") const;

 private:
  friend class Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

inline constexpr int kMaxDepth = 64;

// Parses exactly one JSON document (trailing whitespace allowed, anything
// else after it is an error). Returns false and fills `error` (with a byte
// offset) on malformed input.
bool Parse(std::string_view text, Value* out, std::string* error = nullptr);

// Serializes `value`. `indent < 0` emits the compact single-line form;
// `indent >= 0` pretty-prints with that many spaces per nesting level.
// Object keys come out in sorted (std::map) order, so output is stable and
// parse → Write → parse yields an equal Value. Numbers use the shortest
// representation that round-trips a double; integral values in the exact
// int64 range print without a decimal point.
std::string Write(const Value& value, int indent = -1);

}  // namespace json
}  // namespace dcc

#endif  // SRC_COMMON_JSON_H_
