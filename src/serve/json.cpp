#include "serve/json.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/number.hpp"

namespace xfl::serve {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

void JsonLexer::fail(std::string_view what) const {
  std::string message = "json parse error at offset ";
  message += std::to_string(pos_);
  message += ": ";
  message += what;
  throw std::runtime_error(message);
}

JsonScalar JsonLexer::value(int depth, std::string& scratch) {
  const char c = open(depth);
  JsonScalar out;
  if (c == '{') {
    out.type = JsonValue::Type::kObject;
    object([&](std::string_view) { value(depth + 1, skip_scratch_); });
  } else if (c == '[') {
    out.type = JsonValue::Type::kArray;
    array([&] { value(depth + 1, skip_scratch_); });
  } else {
    out = scalar(scratch);
  }
  return out;
}

JsonScalar JsonLexer::scalar(std::string& scratch) {
  JsonScalar out;
  const char c = peek();
  if (c == '"') {
    out.type = JsonValue::Type::kString;
    out.string = string(scratch);
  } else if (c == 't') {
    literal("true");
    out.type = JsonValue::Type::kBool;
    out.boolean = true;
  } else if (c == 'f') {
    literal("false");
    out.type = JsonValue::Type::kBool;
  } else if (c == 'n') {
    literal("null");
  } else if (c == '-' || (c >= '0' && c <= '9')) {
    out.type = JsonValue::Type::kNumber;
    out.number = number();
  } else {
    fail(std::string("unexpected character '") + c + "'");
  }
  return out;
}

void JsonLexer::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) fail("bad literal");
  pos_ += word.size();
}

namespace {

/// Bytes a string run takes as they are: not '"', '\\' or a control byte.
constexpr auto kPlain = [] {
  std::array<bool, 256> plain{};
  for (int c = 0x20; c < 256; ++c) plain[c] = c != '"' && c != '\\';
  return plain;
}();

/// Bytes a number token runs over: digits, '.', 'e', 'E', '+' and '-'.
constexpr auto kNumberByte = [] {
  std::array<bool, 256> number{};
  for (const char c : std::string_view("0123456789.eE+-"))
    number[static_cast<unsigned char>(c)] = true;
  return number;
}();

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

}  // namespace

std::string_view JsonLexer::string(std::string& scratch) {
  expect('"');
  const std::size_t start = pos_;
  // A run without escapes, the common case, comes back as a view.
  while (pos_ < text_.size() && kPlain[static_cast<unsigned char>(text_[pos_])])
    ++pos_;
  if (pos_ < text_.size() && text_[pos_] == '"') {
    const std::string_view run = text_.substr(start, pos_ - start);
    ++pos_;
    return run;
  }
  // An escape, a control byte or the end: decode into `scratch`, which
  // reports each fault where the byte-at-a-time loop meets it.
  scratch.assign(text_.data() + start, pos_ - start);
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch;
    if (static_cast<unsigned char>(c) < 0x20) fail("control byte in string");
    if (c != '\\') {
      scratch.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char escape = text_[pos_++];
    switch (escape) {
      case '"': scratch.push_back('"'); break;
      case '\\': scratch.push_back('\\'); break;
      case '/': scratch.push_back('/'); break;
      case 'b': scratch.push_back('\b'); break;
      case 'f': scratch.push_back('\f'); break;
      case 'n': scratch.push_back('\n'); break;
      case 'r': scratch.push_back('\r'); break;
      case 't': scratch.push_back('\t'); break;
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
        append_utf8(scratch, code_point);
        break;
      }
      default: fail("bad escape character");
    }
  }
}

double JsonLexer::number() {
  const std::size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  const std::size_t first = pos_;
  std::uint64_t digits = 0;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
    digits = digits * 10 + static_cast<unsigned>(text_[pos_++] - '0');
  const std::size_t integer_end = pos_;
  while (pos_ < text_.size() && kNumberByte[static_cast<unsigned char>(text_[pos_])])
    ++pos_;
  // Up to 15 digits and nothing else name an integer below 2^53, which is
  // exactly the double the number codec reads from them.
  if (pos_ == integer_end && pos_ > first && pos_ - first <= 15) {
    const double value = static_cast<double>(digits);
    return start == first ? value : -value;
  }
  const std::string_view token = text_.substr(start, pos_ - start);
  double value = 0.0;
  if (!xfl::parse_number(token, value))
    fail("bad number '" + std::string(token) + "'");
  return value;
}

namespace {

/// The DOM builder: the lexer's grammar, keeping every value.
void parse_value(JsonLexer& lexer, int depth, JsonValue& out,
                 std::string& scratch) {
  const char c = lexer.open(depth);
  if (c == '{') {
    out.type = JsonValue::Type::kObject;
    lexer.object([&](std::string_view key) {
      std::string name(key);
      JsonValue member;
      parse_value(lexer, depth + 1, member, scratch);
      // Duplicate keys keep the last value, like every mainstream parser.
      out.object[std::move(name)] = std::move(member);
    });
  } else if (c == '[') {
    out.type = JsonValue::Type::kArray;
    lexer.array([&] {
      JsonValue element;
      parse_value(lexer, depth + 1, element, scratch);
      out.array.push_back(std::move(element));
    });
  } else {
    const JsonScalar leaf = lexer.scalar(scratch);
    out.type = leaf.type;
    out.boolean = leaf.boolean;
    out.number = leaf.number;
    out.string = leaf.string;
  }
}

}  // namespace

JsonValue parse_json(std::string_view text) {
  JsonLexer lexer(text);
  JsonValue value;
  std::string scratch;
  parse_value(lexer, 0, value, scratch);
  lexer.finish();
  return value;
}

void append_json_number(std::string& out, double v) {
  if (std::isfinite(v))
    append_number(out, v);
  else
    out += "null";
}

}  // namespace xfl::serve
