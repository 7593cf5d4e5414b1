#pragma once
// Minimal JSON reader for the program's outputs (batch --json, serve
// responses).  Parses one value at a time from a cursor, so a large batch
// document can be walked net by net without building it whole.

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pb::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value, std::less<>> object;

  /// Member lookup; nullptr when absent or when this is not an object.
  [[nodiscard]] const Value* get(std::string_view key) const;
};

struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  /// Parses the next value.
  [[nodiscard]] Value value();
  /// Consumes `ch` (after whitespace) or throws.
  void expect(char ch);
  /// Consumes `ch` when it is next; returns whether it was.
  [[nodiscard]] bool accept(char ch);
  /// Parses an object key and its colon.
  [[nodiscard]] std::string key();
  /// True when only whitespace remains.
  [[nodiscard]] bool at_end();

 private:
  void skip_ws();
  [[nodiscard]] std::string string();
  [[noreturn]] void fail(const char* what) const;

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parses a whole document holding exactly one value.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace pb::json
