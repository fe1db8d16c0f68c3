#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

#include "common/number.hpp"

namespace xfl::serve {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

/// Recursive-descent parser over a string_view. Depth is capped so a
/// hostile frame of nested brackets cannot exhaust the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 32;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    JsonValue value;
    if (c == '{') {
      value.type = JsonValue::Type::kObject;
      parse_object(value.object, depth + 1);
    } else if (c == '[') {
      value.type = JsonValue::Type::kArray;
      parse_array(value.array, depth + 1);
    } else if (c == '"') {
      value.type = JsonValue::Type::kString;
      value.string = parse_string();
    } else if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      value.type = JsonValue::Type::kBool;
      value.boolean = true;
    } else if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      value.type = JsonValue::Type::kBool;
      value.boolean = false;
    } else if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      value.type = JsonValue::Type::kNull;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      value.type = JsonValue::Type::kNumber;
      value.number = parse_number();
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    return value;
  }

  void parse_object(std::map<std::string, JsonValue>& out, int depth) {
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      // Duplicate keys keep the last value, like every mainstream parser.
      out[std::move(key)] = parse_value(depth);
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(std::vector<JsonValue>& out, int depth) {
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      out.push_back(parse_value(depth));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out.push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control byte in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code_point = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code_point <<= 4;
            if (h >= '0' && h <= '9') code_point |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code_point |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code_point |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Surrogate pairs are not needed by the protocol; map them to
          // U+FFFD rather than emitting invalid UTF-8.
          if (code_point >= 0xD800 && code_point <= 0xDFFF) code_point = 0xFFFD;
          append_utf8(out, code_point);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    if (!xfl::parse_number(token, value))
      fail("bad number '" + std::string(token) + "'");
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

void append_json_number(std::string& out, double v) {
  if (std::isfinite(v))
    append_number(out, v);
  else
    out += "null";
}

}  // namespace xfl::serve
