// Minimal JSON support for the serve wire protocol (src/serve). The
// protocol is line-delimited JSON objects, so the parser accepts exactly
// one document per call and the writer side is a pair of helpers —
// string escaping and round-trip double formatting — used by the
// response builders in protocol.cpp. Dependency-free by design: the
// serve layer must not pull a JSON library into the build.
//
// One lexer (JsonLexer) reads every JSON byte the serve layer takes in:
// parse_json builds a DOM with it, and the request-frame parser
// (parse_frame, protocol.cpp) scans a frame with it in one pass and keeps
// no DOM, so the two accept exactly the same strings and numbers.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/log.hpp"

namespace xfl::serve {

/// One parsed JSON value. A tagged struct rather than a variant keeps
/// accessors trivial; frames are tiny so the unused members cost nothing
/// that matters.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// One value as the lexer reads it: scalars carry their payload, objects
/// and arrays only their type. `string` views the input, or the scratch
/// buffer the caller passed when the string had escapes.
struct JsonScalar {
  JsonValue::Type type = JsonValue::Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string_view string;
};

/// Recursive-descent lexer over one string_view. Every failure throws
/// std::runtime_error("json parse error at offset N: ..."). Nesting is
/// capped at kMaxDepth so a hostile frame of brackets cannot exhaust the
/// stack; the document itself is depth 0.
class JsonLexer {
 public:
  static constexpr int kMaxDepth = 32;

  explicit JsonLexer(std::string_view text) : text_(text) {}

  /// Start a value at nesting `depth`: check the depth, skip whitespace
  /// and return the value's first byte without consuming it.
  char open(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    return peek();
  }

  /// Read one value at `depth`. Scalars come back with their payload
  /// (strings decoded into `scratch` only when they hold escapes);
  /// objects and arrays are syntax-checked, skipped and typed.
  JsonScalar value(int depth, std::string& scratch);

  /// Read a string, number or literal (the byte at the cursor picks it).
  JsonScalar scalar(std::string& scratch);

  /// Read an object; `member(key)` runs after each key's ':' and must
  /// read the member's value. `key` views the input or a buffer the next
  /// key reuses, so copy it before reading a nested object.
  template <class Member>
  void object(Member&& member) {
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key");
      const std::string_view key = string(key_scratch_);
      skip_whitespace();
      expect(':');
      member(key);
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  /// Read an array; `element()` must read each element.
  template <class Element>
  void array(Element&& element) {
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      element();
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  /// End of document: only whitespace may follow.
  void finish() {
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
  }

  [[noreturn]] void fail(std::string_view what) const;

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string_view string(std::string& scratch);
  double number();
  void literal(std::string_view word);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string key_scratch_;   ///< Keys with escapes.
  std::string skip_scratch_;  ///< Strings inside skipped values.
};

/// Parse one JSON document (trailing whitespace allowed, nothing else).
/// Throws std::runtime_error with a position-annotated message on
/// malformed input.
JsonValue parse_json(std::string_view text);

/// Append `text` to `out` as a JSON string, surrounding quotes included
/// (the logger's escaper; see obs/log.hpp).
using obs::append_json_string;

/// Append `v` to `out` with the number codec (common/number.hpp), so the
/// parser reads back the same bits; non-finite values render as null per
/// JSON.
void append_json_number(std::string& out, double v);

}  // namespace xfl::serve
