// Minimal JSON support for the serve wire protocol (src/serve). The
// protocol is line-delimited JSON objects, so the parser accepts exactly
// one document per call and the writer side is a pair of helpers —
// string escaping and round-trip double formatting — used by the
// response builders in protocol.cpp. Dependency-free by design: the
// serve layer must not pull a JSON library into the build.
#pragma once

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
