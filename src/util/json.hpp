// Minimal JSON value tree, serializer and parser, for machine-readable
// reports from the CLI tools and benches. Originally write-only; the bench
// regression gate (src/bench/diff.hpp) reads recorded runs back, so the
// tree now round-trips: parse(dump(j)) == j for everything we emit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace lcmm::util {

/// Malformed input to Json::parse. `what()` carries a 1-based line:column
/// position and what the parser expected there.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  using Array = std::vector<Json>;
  // std::map keeps key order deterministic across runs.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}
  Json(std::int64_t v) : value_(v) {}
  Json(std::size_t v) : value_(static_cast<std::int64_t>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}

  static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }
  static Json array() {
    Json j;
    j.value_ = Array{};
    return j;
  }

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Throws JsonParseError on malformed input.
  static Json parse(std::string_view text);

  /// Object access; creates the key. Throws std::logic_error on non-objects.
  Json& operator[](const std::string& key);
  /// Array append. Throws std::logic_error on non-arrays.
  Json& push(Json value);

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  std::size_t size() const;

  /// Typed reads; throw std::logic_error when the value is another type.
  /// as_double accepts integers too (JSON does not distinguish).
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Object lookup. `contains` is false on non-objects; `at` throws
  /// std::out_of_range on a missing key, std::logic_error on non-objects.
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  /// Array element access; throws std::out_of_range / std::logic_error.
  const Json& at(std::size_t index) const;

  /// Underlying containers, for iteration. Throw std::logic_error when the
  /// value is not the requested aggregate.
  const Object& object_items() const;
  const Array& array_items() const;

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serializes; indent < 0 emits compact single-line JSON.
  std::string dump(int indent = 2) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;

  void write(std::string& out, int indent, int depth) const;
};

}  // namespace lcmm::util
