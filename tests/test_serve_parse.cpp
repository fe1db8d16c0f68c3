// Differential and hostile-input coverage for the one-pass request-frame
// parser, and the server's in-place framing around it:
//   - namespace `reference` keeps the DOM-based parse_frame that the
//     one-pass parser replaced, with the recursive-descent JSON parser it
//     ran on, verbatim, as the oracle;
//   - a corpus of every documented frame form, each single fault,
//     whitespace, duplicate keys, escaped and numeric ids, nesting at the
//     depth cap, trailing bytes and CRLF must give the same kind, reply
//     address, fields (doubles bit for bit) and error text as the oracle;
//   - so must a seeded fuzz of 100k byte flips, truncations and splices of
//     valid frames;
//   - 1 MB frames of 100k distinct or 100k repeated keys match it too, in
//     linear time;
//   - 2,000 pipelined JSON or binary predicts, written at once or in
//     random-size chunks, come back bit-identical to predict_rates_mbps;
//   - the parse stage timer resolves sub-microsecond parses.
// Tier2-serve label: check-serve runs it plain, under TSan and under
// ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/number.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace xfl::serve {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// ---------------------------------------------------------------- oracle

namespace reference {

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

/// Thrown internally to turn field-level validation failures into one
/// kBad frame; never escapes parse_frame.
struct FrameError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void reject(const std::string& what) { throw FrameError(what); }

std::string extract_id(const JsonValue& root) {
  const JsonValue* id = root.find("id");
  if (id == nullptr) return {};
  if (id->is_string()) return id->string;
  if (id->is_number()) {
    std::string text;
    append_json_number(text, id->number);
    return text;
  }
  reject("'id' must be a string or number");
}

double require_number(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) reject("missing required field '" + key + "'");
  if (!v->is_number()) reject("field '" + key + "' must be a number");
  return v->number;
}

/// Optional non-negative integral field with a default and an upper cap.
std::uint64_t integral_or(const JsonValue& object, const std::string& key,
                          std::uint64_t fallback, std::uint64_t min_value,
                          std::uint64_t max_value) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) reject("field '" + key + "' must be a number");
  const double d = v->number;
  if (!(d >= 0.0) || d != std::floor(d) || d > 9.007199254740992e15)
    reject("field '" + key + "' must be a non-negative integer");
  const auto n = static_cast<std::uint64_t>(d);
  if (n < min_value || n > max_value)
    reject("field '" + key + "' out of range");
  return n;
}

features::ContentionFeatures parse_load(const JsonValue& load) {
  if (!load.is_object()) reject("'load' must be an object");
  features::ContentionFeatures features;
  for (const auto& [key, value] : load.object) {
    if (!value.is_number()) reject("load field '" + key + "' must be a number");
    double* slot = nullptr;
    if (key == "k_sout") slot = &features.k_sout;
    else if (key == "k_sin") slot = &features.k_sin;
    else if (key == "k_dout") slot = &features.k_dout;
    else if (key == "k_din") slot = &features.k_din;
    else if (key == "g_src") slot = &features.g_src;
    else if (key == "g_dst") slot = &features.g_dst;
    else if (key == "s_sout") slot = &features.s_sout;
    else if (key == "s_sin") slot = &features.s_sin;
    else if (key == "s_dout") slot = &features.s_dout;
    else if (key == "s_din") slot = &features.s_din;
    else reject("unknown load field '" + key + "'");
    if (!std::isfinite(value.number)) reject("load field '" + key + "' must be finite");
    *slot = value.number;
  }
  return features;
}

Frame parse_admin(const JsonValue& root, std::string id) {
  const JsonValue* cmd = root.find("cmd");
  if (!cmd->is_string()) reject("'cmd' must be a string");
  Frame frame;
  frame.kind = Frame::Kind::kAdmin;
  frame.reply.id = std::move(id);
  frame.admin.cmd = cmd->string;
  bool saw_registry = false;
  for (const auto& [key, value] : root.object) {
    if (key == "cmd" || key == "id") continue;
    if (key == "path") {
      if (!value.is_string()) reject("'path' must be a string");
      frame.admin.path = value.string;
      continue;
    }
    if (key == "registry") {
      if (!value.is_bool()) reject("'registry' must be a boolean");
      frame.admin.registry = value.boolean;
      saw_registry = true;
      continue;
    }
    reject("unknown field '" + key + "'");
  }
  if (frame.admin.cmd != "ping" && frame.admin.cmd != "stats" &&
      frame.admin.cmd != "reload" && frame.admin.cmd != "retrain-status")
    reject("unknown cmd '" + frame.admin.cmd + "'");
  if (!frame.admin.path.empty() && frame.admin.cmd != "reload")
    reject("'path' is only valid with cmd 'reload'");
  if (saw_registry && frame.admin.cmd != "stats")
    reject("'registry' is only valid with cmd 'stats'");
  return frame;
}

Frame parse_feedback(const JsonValue& root, std::string id) {
  Frame frame;
  frame.kind = Frame::Kind::kFeedback;
  frame.reply.id = std::move(id);
  for (const auto& [key, value] : root.object) {
    (void)value;
    if (key != "id" && key != "feedback" && key != "observed_mbps")
      reject("unknown field '" + key + "'");
  }
  const JsonValue* trace = root.find("feedback");
  if (!trace->is_string()) reject("'feedback' must be a trace-id string");
  if (!parse_trace_id(trace->string, frame.feedback.trace_id))
    reject("'feedback' must look like \"t<number>\"");
  frame.feedback.observed_mbps = require_number(root, "observed_mbps");
  if (!std::isfinite(frame.feedback.observed_mbps) ||
      !(frame.feedback.observed_mbps > 0.0))
    reject("'observed_mbps' must be finite and positive");
  return frame;
}

Frame parse_predict(const JsonValue& root, std::string id) {
  Frame frame;
  frame.kind = Frame::Kind::kPredict;
  frame.reply.id = std::move(id);

  for (const auto& [key, value] : root.object) {
    (void)value;
    if (key != "id" && key != "src" && key != "dst" && key != "bytes" &&
        key != "files" && key != "dirs" && key != "concurrency" &&
        key != "parallelism" && key != "deadline_ms" && key != "load" &&
        key != "explain" && key != "top_k")
      reject("unknown field '" + key + "'");
  }

  if (const JsonValue* explain = root.find("explain")) {
    if (!explain->is_bool()) reject("'explain' must be a boolean");
    frame.predict.explain = explain->boolean;
  }
  frame.reply.top_k =
      static_cast<std::uint16_t>(integral_or(root, "top_k", 0, 0, 0xffff));
  if (root.find("top_k") != nullptr && !frame.predict.explain)
    reject("'top_k' is only valid with 'explain'");

  // The 32-bit fields are capped before they narrow; the transfer's own
  // ranges are checked once it is whole.
  constexpr std::uint64_t kU32 = 0xffffffffu;
  constexpr std::uint64_t kU64 = ~std::uint64_t{0};
  auto& transfer = frame.predict.transfer;
  transfer.src = static_cast<endpoint::EndpointId>(
      integral_or(root, "src", 0, 0, kU32));
  if (root.find("src") == nullptr) reject("missing required field 'src'");
  transfer.dst = static_cast<endpoint::EndpointId>(
      integral_or(root, "dst", 0, 0, kU32));
  if (root.find("dst") == nullptr) reject("missing required field 'dst'");
  transfer.bytes = require_number(root, "bytes");
  transfer.files = integral_or(root, "files", 1, 0, kU64);
  transfer.dirs = integral_or(root, "dirs", 1, 0, kU64);
  transfer.concurrency = static_cast<std::uint32_t>(
      integral_or(root, "concurrency", 4, 0, kU32));
  transfer.parallelism = static_cast<std::uint32_t>(
      integral_or(root, "parallelism", 4, 0, kU32));
  if (const char* field = transfer.invalid_field())
    reject("field '" + std::string(field) + "' out of range");
  frame.predict.deadline_ms =
      integral_or(root, "deadline_ms", 0, 0, 86400u * 1000u);
  if (const JsonValue* load = root.find("load"))
    frame.predict.load = parse_load(*load);
  return frame;
}

Frame parse_frame(const std::string& line) {
  Frame bad;
  bad.kind = Frame::Kind::kBad;
  if (line.size() > kMaxFrameBytes) {
    bad.error = "frame exceeds " + std::to_string(kMaxFrameBytes) + " bytes";
    return bad;
  }
  JsonValue root;
  try {
    root = Parser(line).parse_document();
  } catch (const std::exception& error) {
    bad.error = error.what();
    return bad;
  }
  if (!root.is_object()) {
    bad.error = "frame must be a JSON object";
    return bad;
  }
  try {
    std::string id = extract_id(root);
    bad.reply.id = id;  // Kept for the error response if parsing fails below.
    if (root.find("cmd") != nullptr) return parse_admin(root, std::move(id));
    if (root.find("feedback") != nullptr)
      return parse_feedback(root, std::move(id));
    return parse_predict(root, std::move(id));
  } catch (const FrameError& error) {
    bad.error = error.what();
    return bad;
  }
}

}  // namespace reference

// ------------------------------------------------------------ comparison

void put(std::string& out, std::string_view text) {
  append_number(out, text.size());
  out += ':';
  out += text;
  out += ' ';
}

void put(std::string& out, std::uint64_t value) {
  append_number(out, value);
  out += ' ';
}

void put(std::string& out, double value) {
  put(out, std::bit_cast<std::uint64_t>(value));
}

/// Every field of a frame, doubles as their bits: two frames are the same
/// exactly when their descriptions are equal.
std::string describe(const Frame& frame) {
  std::string out;
  put(out, static_cast<std::uint64_t>(frame.kind));
  put(out, frame.reply.id);
  put(out, frame.reply.wire_id);
  put(out, std::uint64_t{frame.reply.packed});
  put(out, std::uint64_t{frame.reply.wrap});
  put(out, std::uint64_t{frame.reply.top_k});
  const core::PlannedTransfer& t = frame.predict.transfer;
  put(out, std::uint64_t{t.src});
  put(out, std::uint64_t{t.dst});
  put(out, t.bytes);
  put(out, t.files);
  put(out, t.dirs);
  put(out, std::uint64_t{t.concurrency});
  put(out, std::uint64_t{t.parallelism});
  const features::ContentionFeatures& l = frame.predict.load;
  for (double v : {l.k_sout, l.k_sin, l.k_dout, l.k_din, l.g_src, l.g_dst,
                   l.s_sout, l.s_sin, l.s_dout, l.s_din})
    put(out, v);
  put(out, frame.predict.deadline_ms);
  put(out, std::uint64_t{frame.predict.explain});
  put(out, frame.feedback.trace_id);
  put(out, frame.feedback.observed_mbps);
  put(out, frame.admin.cmd);
  put(out, frame.admin.path);
  put(out, std::uint64_t{frame.admin.registry});
  put(out, frame.error);
  return out;
}

/// Printable form of a frame for failure messages.
std::string printable(std::string_view line) {
  std::string out;
  for (const char c : line.substr(0, 400)) {
    if (std::isprint(static_cast<unsigned char>(c))) {
      out += c;
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[static_cast<unsigned char>(c) >> 4];
      out += hex[static_cast<unsigned char>(c) & 15];
    }
  }
  if (line.size() > 400) out += "...";
  return out;
}

/// The one-pass parser agrees with the oracle on `line`.
void expect_matches_reference(const std::string& line) {
  EXPECT_EQ(describe(parse_frame(line)), describe(reference::parse_frame(line)))
      << "frame: " << printable(line);
}

// ------------------------------------------------------------------ corpus

core::PlannedTransfer sample_transfer() {
  core::PlannedTransfer planned;
  planned.src = 5;
  planned.dst = 9;
  planned.bytes = 1.25e11;
  planned.files = 17;
  planned.dirs = 3;
  planned.concurrency = 6;
  planned.parallelism = 2;
  return planned;
}

features::ContentionFeatures sample_load() {
  features::ContentionFeatures load;
  load.k_sout = 1.0e8 / 3.0;
  load.k_sin = 2.5e7;
  load.k_dout = 0.1;
  load.k_din = 5.0e7;
  load.g_src = 8.0;
  load.g_dst = 4.0;
  load.s_sout = 32.0;
  load.s_sin = 1.0;
  load.s_dout = 2.0;
  load.s_din = 16.0;
  return load;
}

std::string without_newline(std::string line) {
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

/// Every documented frame form, as the request builders write them and
/// by hand.
std::vector<std::string> valid_frames() {
  const core::PlannedTransfer planned = sample_transfer();
  const features::ContentionFeatures load = sample_load();
  return {
      without_newline(predict_request_line("1", planned)),
      without_newline(predict_request_line("2", planned, load, 250)),
      predict_request_line("3", planned, load),  // Newline: whitespace.
      without_newline(explain_request_line("4", planned)),
      without_newline(explain_request_line("5", planned, load, 10, 5)),
      without_newline(feedback_request_line("6", "t17", 212.5)),
      R"({"id":"7","src":3,"dst":4,"bytes":5e10})",
      R"({"src":0,"dst":1,"bytes":1e9})",
      R"({"id":12,"src":0,"dst":1,"bytes":1e9,"load":{"k_sout":2.5e8,"g_dst":4}})",
      R"({"src":0,"dst":1,"bytes":1,"explain":false})",
      R"({"src":0,"dst":1,"bytes":1,"explain":true,"top_k":0})",
      R"({"src":0,"dst":1,"bytes":1,"explain":true,"top_k":65535})",
      R"({"src":0,"dst":1,"bytes":1,"deadline_ms":86400000})",
      R"({"src":0,"dst":1,"bytes":1,"load":{}})",
      R"({"feedback":"t0","observed_mbps":1e-300})",
      R"({"cmd":"ping"})",
      R"({"cmd":"ping","id":"p"})",
      R"({"cmd":"stats"})",
      R"({"cmd":"stats","registry":true})",
      R"({"cmd":"stats","registry":false})",
      R"({"cmd":"reload"})",
      R"({"cmd":"reload","path":"m.txt","id":9})",
      R"({"cmd":"reload","path":""})",
      R"({"cmd":"retrain-status"})",
  };
}

/// Single-fault frames: one broken field, key or byte each.
std::vector<std::string> single_faults() {
  return {
      // JSON syntax.
      "", " ", "not json at all", "{", "}", "{\"src\"", "{\"src\":", "{\"src\":0",
      "{\"src\":0,}", "{,}", "{\"src\" 0}", "{\"src\":0 \"dst\":1}", "{src:0}",
      "{'src':0}", "{\"src\":tru}", "{\"src\":nul}", "{\"src\":falsey}",
      "{\"src\":1.2.3}", "{\"src\":-}", "{\"src\":+1}", "{\"src\":.5}",
      "{\"src\":1e999}", "{\"src\":0x10}", "{\"src\":01}", "{\"src\":1e}",
      "{\"id\":\"a\\qb\"}", "{\"id\":\"\\u12G4\"}", "{\"id\":\"\\u12\"}",
      "{\"id\":\"\\", "{\"id\":\"abc", "{\"id\":\"a\tb\"}",
      std::string("{\"id\":\"a\0b\"}", 11), "{\"id\":\"x\"}}",
      "{\"id\":\"x\"} trailing", "{\"id\":\"x\"}\x01", "{\"id\":@}",
      "[1,2,3]", "[1,2,", "\"just a string\"", "null", "42", "true",
      // The id.
      R"({"id":true,"src":0,"dst":1,"bytes":1})",
      R"({"id":null,"src":0,"dst":1,"bytes":1})",
      R"({"id":[],"src":0,"dst":1,"bytes":1})",
      R"({"id":{},"src":0,"dst":1,"bytes":1})",
      // Predict.
      R"({"id":"k","src":0,"bytes":1})",
      R"({"id":"k","dst":1,"bytes":1})",
      R"({"id":"k","src":0,"dst":1})",
      R"({"src":0,"dst":1,"bytes":1,"bogus":2})",
      R"({"src":0,"dst":1,"bytes":1,"path":"x"})",
      R"({"src":0,"dst":1,"bytes":1,"registry":true})",
      R"({"src":0,"dst":1,"bytes":1,"observed_mbps":1})",
      R"({"src":"0","dst":1,"bytes":1})",
      R"({"src":-1,"dst":1,"bytes":1})",
      R"({"src":1.5,"dst":1,"bytes":1})",
      R"({"src":4294967296,"dst":1,"bytes":1})",
      R"({"src":1073741825,"dst":1,"bytes":1})",
      R"({"src":1e16,"dst":1,"bytes":1})",
      R"({"src":0,"dst":null,"bytes":1})",
      R"({"src":0,"dst":1,"bytes":"big"})",
      R"({"src":0,"dst":1,"bytes":-1})",
      R"({"src":0,"dst":1,"bytes":1,"files":0})",
      R"({"src":0,"dst":1,"bytes":1,"files":1099511627777})",
      R"({"src":0,"dst":1,"bytes":1,"files":2.5})",
      R"({"src":0,"dst":1,"bytes":1,"dirs":0})",
      R"({"src":0,"dst":1,"bytes":1,"dirs":"1"})",
      R"({"src":0,"dst":1,"bytes":1,"concurrency":0})",
      R"({"src":0,"dst":1,"bytes":1,"concurrency":1048577})",
      R"({"src":0,"dst":1,"bytes":1,"concurrency":4294967296})",
      R"({"src":0,"dst":1,"bytes":1,"parallelism":0})",
      R"({"src":0,"dst":1,"bytes":1,"parallelism":-0.5})",
      R"({"src":0,"dst":1,"bytes":1,"deadline_ms":-1})",
      R"({"src":0,"dst":1,"bytes":1,"deadline_ms":86400001})",
      R"({"src":0,"dst":1,"bytes":1,"explain":1})",
      R"({"src":0,"dst":1,"bytes":1,"explain":"yes"})",
      R"({"src":0,"dst":1,"bytes":1,"top_k":3})",
      R"({"src":0,"dst":1,"bytes":1,"explain":false,"top_k":3})",
      R"({"src":0,"dst":1,"bytes":1,"explain":true,"top_k":65536})",
      R"({"src":0,"dst":1,"bytes":1,"explain":true,"top_k":-1})",
      R"({"src":0,"dst":1,"bytes":1,"explain":true,"top_k":1.5})",
      R"({"src":0,"dst":1,"bytes":1,"explain":true,"top_k":"3"})",
      R"({"src":0,"dst":1,"bytes":1,"load":5})",
      R"({"src":0,"dst":1,"bytes":1,"load":[]})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_zzz":1}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_zzz":"1"}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":"1"}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":null}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":{}}})",
      // Feedback.
      R"({"feedback":"42","observed_mbps":1})",
      R"({"feedback":"t","observed_mbps":1})",
      R"({"feedback":"t1x","observed_mbps":1})",
      R"({"feedback":"t-1","observed_mbps":1})",
      R"({"feedback":42,"observed_mbps":1})",
      R"({"feedback":"t42","observed_mbps":0})",
      R"({"feedback":"t42","observed_mbps":-1})",
      R"({"feedback":"t42","observed_mbps":"1"})",
      R"({"feedback":"t42"})",
      R"({"feedback":"t42","observed_mbps":1,"x":1})",
      R"({"feedback":"t42","observed_mbps":1,"src":1})",
      // Admin.
      R"({"cmd":1})",
      R"({"cmd":"boom"})",
      R"({"cmd":"ping","path":"m.txt"})",
      R"({"cmd":"reload","path":1})",
      R"({"cmd":"ping","registry":true})",
      R"({"cmd":"stats","registry":1})",
      R"({"cmd":"stats","src":0})",
      R"({"cmd":"stats","zzz":0})",
      R"({"cmd":"stats","feedback":"t1"})",
  };
}

/// Layout variants: whitespace, duplicates, escapes, numeric ids, depth,
/// trailing bytes and line endings.
std::vector<std::string> layout_frames() {
  std::vector<std::string> frames = {
      " \t{ \"src\" : 0 ,\n\"dst\":1 , \"bytes\" : 1e9 } \r\n",
      "{\"src\":0,\"dst\":1,\"bytes\":1}\r",
      "{\"src\":0,\"dst\":1,\"bytes\":1}\r\n",
      "\r\n{\"src\":0,\"dst\":1,\"bytes\":1}",
      // Duplicates: the last value wins, an invalid one included.
      R"({"src":5,"src":0,"dst":1,"bytes":1})",
      R"({"src":"x","src":0,"dst":1,"bytes":1})",
      R"({"src":0,"src":"x","dst":1,"bytes":1})",
      R"({"id":"a","id":"b","src":0,"dst":1,"bytes":1})",
      R"({"id":[1],"id":"b","src":0,"dst":1,"bytes":1})",
      R"({"id":"b","id":{},"src":0,"dst":1,"bytes":1})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":1},"load":{"k_din":2}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":1},"load":5})",
      R"({"src":0,"dst":1,"bytes":1,"load":5,"load":{"k_sout":1}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_zz":1},"load":{"k_sin":1}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":"x","k_sout":3}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"zz":1,"zz":"a"}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"zz":"a","zz":1}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"zz":1,"aa":"a","k_sout":"b"}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"g_dst":"b","aa":1}})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":1,"k_sout":2}})",
      R"({"cmd":"stats","cmd":"ping"})",
      R"({"cmd":1,"cmd":"ping"})",
      R"({"feedback":"t1","feedback":"t2","observed_mbps":1})",
      R"({"src":0,"dst":1,"bytes":1,"zz":1,"aa":2,"zz":3})",
      R"({"cmd":"stats","registry":1,"aaa":1})",
      R"({"cmd":"stats","registry":1,"zzz":1})",
      R"({"cmd":"stats","path":1,"bytes":1})",
      R"({"cmd":"reload","path":"m","path":"n"})",
      // Escaped and numeric ids, escaped keys.
      R"({"id":"a\"b\\c\/d\b\f\n\r\t","src":0,"dst":1,"bytes":1})",
      R"({"id":"\u0041\u00e9\u20ac\ud800\uDFFF","src":0,"dst":1,"bytes":1})",
      R"({"id":"plain","\u0073rc":0,"dst":1,"bytes":1})",
      R"({"\u0069d":"escaped key","src":0,"dst":1,"bytes":1})",
      R"({"src":0,"dst":1,"bytes":1,"load":{"k_s\u006fut":7}})",
      R"({"src":0,"dst":1,"bytes":1,"\u0000":1})",
      R"({"id":0,"src":0,"dst":1,"bytes":1})",
      R"({"id":-0,"src":0,"dst":1,"bytes":1})",
      R"({"id":1.5e3,"src":0,"dst":1,"bytes":1})",
      R"({"id":0.1,"src":0,"dst":1,"bytes":1})",
      R"({"id":1e300,"src":0,"dst":1,"bytes":1})",
      R"({"id":-123456789012345678901234567890,"src":0,"dst":1,"bytes":1})",
      R"({"src":0,"dst":1,"bytes":1E+2,"files":1e1,"dirs":10E-1})",
      R"({"src":0.0,"dst":1,"bytes":-0})",
      // Integers at and past the exact-double range, and long decimals.
      R"({"src":0,"dst":1,"bytes":999999999999999})",
      R"({"src":0,"dst":1,"bytes":9007199254740993})",
      R"({"src":0,"dst":1,"bytes":98765432109876543210})",
      R"({"src":0,"dst":1,"bytes":123456789012345678901})",
      R"({"src":0,"dst":1,"bytes":-900719925474099.5})",
      R"({"src":0,"dst":1,"bytes":0.30000000000000004})",
      R"({"src":0,"dst":1,"bytes":00012,"files":-0})",
      R"({"src":0,"dst":1,"bytes":1,"files":1099511627776})",
      R"({})",
  };
  // Nesting at the depth cap (32) and one past it, in an unknown key, a
  // schema key, a load member and the document itself.
  for (const int depth : {31, 32, 33}) {
    const std::string open(static_cast<std::size_t>(depth), '[');
    const std::string close(static_cast<std::size_t>(depth), ']');
    frames.push_back(R"({"src":0,"dst":1,"bytes":1,"deep":)" + open + close + "}");
    frames.push_back(R"({"src":)" + open + close + R"(,"dst":1,"bytes":1})");
    frames.push_back(R"({"src":0,"dst":1,"bytes":1,"load":{"k_sout":)" + open +
                     close + "}}");
    frames.push_back(open + close);
    std::string objects;
    for (int i = 0; i < depth; ++i) objects += "{\"a\":";
    objects += "1";
    objects += std::string(static_cast<std::size_t>(depth), '}');
    frames.push_back(R"({"src":0,"dst":1,"bytes":1,"deep":)" + objects + "}");
  }
  // At the size limit and one past it.
  const std::string base = R"({"src":0,"dst":1,"bytes":1})";
  frames.push_back(base + std::string(kMaxFrameBytes - base.size(), ' '));
  frames.push_back(base + std::string(kMaxFrameBytes + 1 - base.size(), ' '));
  return frames;
}

TEST(ServeParse, ValidFramesMatchReference) {
  for (const std::string& line : valid_frames()) {
    const Frame frame = parse_frame(line);
    EXPECT_NE(frame.kind, Frame::Kind::kBad) << line << ": " << frame.error;
    expect_matches_reference(line);
  }
}

TEST(ServeParse, SingleFaultsMatchReferenceWithErrorText) {
  for (const std::string& line : single_faults()) {
    const Frame frame = parse_frame(line);
    EXPECT_EQ(frame.kind, Frame::Kind::kBad) << printable(line);
    EXPECT_FALSE(frame.error.empty()) << printable(line);
    expect_matches_reference(line);
  }
}

TEST(ServeParse, LayoutVariantsMatchReference) {
  for (const std::string& line : layout_frames()) expect_matches_reference(line);
}

TEST(ServeParse, LastDuplicateWinsAsAWhole) {
  const Frame frame = parse_frame(
      R"({"src":"x","src":2,"dst":1,"bytes":1,"load":{"k_sout":1},"load":{"k_din":2}})");
  ASSERT_EQ(frame.kind, Frame::Kind::kPredict) << frame.error;
  EXPECT_EQ(frame.predict.transfer.src, 2u);
  EXPECT_EQ(frame.predict.load.k_sout, 0.0);
  EXPECT_EQ(frame.predict.load.k_din, 2.0);
}

// -------------------------------------------------------------------- fuzz

/// Valid frames with random transfers, loads, ids and options, written by
/// the protocol's own builders.
std::string random_valid_frame(std::mt19937_64& rng) {
  core::PlannedTransfer planned;
  planned.src = static_cast<endpoint::EndpointId>(rng() % 64);
  planned.dst = static_cast<endpoint::EndpointId>(rng() % 64);
  planned.bytes = std::uniform_real_distribution<double>(0.0, 1e14)(rng);
  planned.files = 1 + rng() % (1u << 20);
  planned.dirs = 1 + rng() % 1024;
  planned.concurrency = static_cast<std::uint32_t>(1 + rng() % 64);
  planned.parallelism = static_cast<std::uint32_t>(1 + rng() % 64);
  features::ContentionFeatures load;
  if (rng() % 2 == 0) {
    std::uniform_real_distribution<double> value(0.0, 5000.0);
    load.k_sout = value(rng);
    load.k_din = value(rng);
    load.g_src = value(rng);
    load.s_dout = value(rng);
  }
  const std::string id = std::to_string(rng() % 100000);
  switch (rng() % 5) {
    case 0:
      return explain_request_line(id, planned, load, rng() % 1000,
                                  static_cast<std::uint16_t>(rng() % 8));
    case 1:
      return feedback_request_line(id, "t" + std::to_string(rng() % 1000),
                                   planned.bytes / 1e6);
    case 2: {
      static const char* admin[] = {
          R"({"cmd":"ping","id":"a"})", R"({"cmd":"stats","registry":true})",
          R"({"cmd":"reload","path":"m.txt"})", R"({"cmd":"retrain-status"})"};
      return admin[rng() % 4];
    }
    default:
      return predict_request_line(id, planned, load, rng() % 2 ? 0 : 250);
  }
}

/// One mutation: a byte flip (to JSON-significant bytes most of the time),
/// an insertion, a deletion, a truncation or a splice with another frame.
void mutate(std::string& line, std::mt19937_64& rng) {
  static const std::string kBytes = "{}[]\":,\\ \t\r\n-+.eE0123456789tfnul";
  static const std::vector<std::string> kTokens = {
      ",\"src\":1", ",\"load\":{}", ",\"id\":7", ",\"cmd\":\"ping\"",
      ",\"feedback\":\"t1\"", "\"top_k\":", "\\u0041", "[[[", "]]", "{}",
      "null", "true", "1e999", "-0", "\"zz\":1,", ",\"explain\":true"};
  if (line.empty()) line = "{}";
  const std::size_t at = rng() % (line.size() + 1);
  switch (rng() % 6) {
    case 0:
    case 1:
      if (at < line.size())
        line[at] = rng() % 4 == 0 ? static_cast<char>(rng() % 256)
                                  : kBytes[rng() % kBytes.size()];
      break;
    case 2:
      line.insert(at, kTokens[rng() % kTokens.size()]);
      break;
    case 3:
      line.erase(at, 1 + rng() % 8);
      break;
    case 4:
      line.resize(at);
      break;
    default: {
      const std::string other = without_newline(random_valid_frame(rng));
      line = line.substr(0, at) + other.substr(rng() % (other.size() + 1));
      break;
    }
  }
}

TEST(ServeParse, SeededFuzzMatchesReference) {
  std::mt19937_64 rng(20261019);
  std::vector<std::string> seeds = valid_frames();
  for (const std::string& line : layout_frames())
    if (line.size() < 4096) seeds.push_back(line);
  int bad = 0;
  for (int i = 0; i < 100000; ++i) {
    std::string line = rng() % 3 == 0 ? seeds[rng() % seeds.size()]
                                      : random_valid_frame(rng);
    if (rng() % 8 != 0) line = without_newline(line);
    const int mutations = static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) mutate(line, rng);
    const Frame got = parse_frame(line);
    const Frame want = reference::parse_frame(line);
    bad += got.kind == Frame::Kind::kBad;
    ASSERT_EQ(describe(got), describe(want))
        << "case " << i << ", frame: " << printable(line);
  }
  // The fuzz reaches both sides of the parser.
  EXPECT_GT(bad, 10000);
  EXPECT_LT(bad, 90000);
}

// ---------------------------------------------------------- hostile input

TEST(ServeParse, HundredThousandDistinctUnknownKeys) {
  std::vector<std::string> keys;
  static const char* digits = "0123456789abcdefghijklmnopqrstuvwxyz";
  for (int i = 0; i < 100000; ++i) {
    std::string key;
    for (int v = i, d = 0; d < 4; ++d, v /= 36) key += digits[v % 36];
    keys.push_back(key);
  }
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(7));
  std::string line = R"({"src":0,"dst":1,"bytes":1)";
  for (const std::string& key : keys) line += ",\"" + key + "\":1";
  line += "}";
  ASSERT_LE(line.size(), kMaxFrameBytes);
  const Frame frame = parse_frame(line);
  EXPECT_EQ(frame.kind, Frame::Kind::kBad);
  EXPECT_EQ(frame.error, "unknown field '0000'");
  expect_matches_reference(line);
}

TEST(ServeParse, HundredThousandCopiesOfOneKey) {
  std::string line = R"({"src":0,"dst":1,"bytes":1)";
  for (int i = 0; i < 100000; ++i) line += ",\"files\":" + std::to_string(1 + i % 9);
  line += "}";
  ASSERT_LE(line.size(), kMaxFrameBytes);
  const Frame frame = parse_frame(line);
  ASSERT_EQ(frame.kind, Frame::Kind::kPredict) << frame.error;
  EXPECT_EQ(frame.predict.transfer.files, 1u + 99999u % 9u);
  expect_matches_reference(line);
}

// -------------------------------------------------------------- end to end

std::shared_ptr<const core::TransferPredictor> shared_predictor() {
  static const auto predictor = [] {
    sim::EsnetConfig config;
    config.transfers = 400;
    config.duration_s = 86400.0;
    config.seed = 31;
    const auto log = sim::make_esnet_testbed(config).run().log;
    core::TransferPredictor::Options options;
    options.min_edge_transfers = 50;
    options.gbt.trees = 10;
    auto fitted = std::make_shared<core::TransferPredictor>(options);
    fitted->fit(log);
    return std::shared_ptr<const core::TransferPredictor>(fitted);
  }();
  return predictor;
}

constexpr std::size_t kPipelined = 2000;

struct Workload {
  std::vector<core::PlannedTransfer> transfers;
  std::vector<features::ContentionFeatures> loads;
  std::vector<double> expected;  ///< predict_rates_mbps, in order.
};

Workload pipelined_workload() {
  Workload w;
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> value(0.0, 5000.0);
  for (std::size_t i = 0; i < kPipelined; ++i) {
    core::PlannedTransfer planned;
    planned.src = i % 2 == 0 ? 0 : 2;  // Fitted endpoints.
    planned.dst = i % 3 == 0 ? 1 : 3;
    planned.bytes = std::uniform_real_distribution<double>(1e6, 1e12)(rng);
    planned.files = 1 + rng() % 1000;
    planned.dirs = 1 + rng() % 16;
    planned.concurrency = static_cast<std::uint32_t>(1 + rng() % 16);
    planned.parallelism = static_cast<std::uint32_t>(1 + rng() % 16);
    features::ContentionFeatures load;
    if (i % 3 != 0) {
      load.k_sout = value(rng);
      load.k_din = value(rng);
      load.g_src = value(rng) / 100.0;
      load.s_dout = value(rng) / 10.0;
    }
    w.transfers.push_back(planned);
    w.loads.push_back(load);
  }
  w.expected = shared_predictor()->predict_rates_mbps(w.transfers, w.loads);
  return w;
}

/// Send `bytes` in one write, or in seeded random-size chunks.
void send_bytes(PredictionClient& client, std::string_view bytes,
                std::uint64_t chunk_seed) {
  if (chunk_seed == 0) {
    client.send_raw(bytes);
    return;
  }
  std::mt19937_64 rng(chunk_seed);
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t n = std::min<std::size_t>(1 + rng() % 700, bytes.size() - at);
    client.send_raw(bytes.substr(at, n));
    at += n;
  }
}

PredictionServer::Options roomy_options() {
  PredictionServer::Options options;
  options.queue_capacity = 2 * kPipelined;  // No overload replies.
  return options;
}

TEST(ServeParseE2E, PipelinedJsonFramesMatchDirectPredictions) {
  const Workload w = pipelined_workload();
  std::string bytes;
  for (std::size_t i = 0; i < kPipelined; ++i)
    bytes += predict_request_line(std::to_string(i), w.transfers[i], w.loads[i]);
  ModelHost host(shared_predictor());
  PredictionServer server(host, roomy_options());
  server.start();
  for (const std::uint64_t chunk_seed : {0u, 11u, 12u}) {
    PredictionClient client("127.0.0.1", server.port());
    send_bytes(client, bytes, chunk_seed);
    std::vector<bool> seen(kPipelined, false);
    for (std::size_t n = 0; n < kPipelined; ++n) {
      const PredictReply reply = PredictionClient::parse_reply(client.read_line());
      ASSERT_TRUE(reply.ok) << reply.error << ": " << reply.message;
      const std::size_t i = std::stoul(reply.id);
      ASSERT_LT(i, kPipelined);
      EXPECT_FALSE(seen[i]) << "duplicate reply " << i;
      seen[i] = true;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.rate_mbps),
                std::bit_cast<std::uint64_t>(w.expected[i]))
          << "request " << i << ", chunk seed " << chunk_seed;
    }
  }
  server.stop();
}

TEST(ServeParseE2E, PipelinedBinaryFramesMatchDirectPredictions) {
  const Workload w = pipelined_workload();
  std::string bytes;
  for (std::size_t i = 0; i < kPipelined; ++i)
    bytes += binary_predict_request(i, w.transfers[i], w.loads[i]);
  ModelHost host(shared_predictor());
  PredictionServer server(host, roomy_options());
  server.start();
  for (const std::uint64_t chunk_seed : {0u, 21u, 22u}) {
    PredictionClient client("127.0.0.1", server.port());
    client.negotiate_binary();
    send_bytes(client, bytes, chunk_seed);
    std::vector<bool> seen(kPipelined, false);
    for (std::size_t n = 0; n < kPipelined; ++n) {
      const auto [type, payload] = client.read_frame();
      const BinaryPredictReply reply = parse_binary_reply(type, payload);
      ASSERT_TRUE(reply.ok) << reply.error << ": " << reply.message;
      ASSERT_LT(reply.id, kPipelined);
      EXPECT_FALSE(seen[reply.id]) << "duplicate reply " << reply.id;
      seen[reply.id] = true;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.rate_mbps),
                std::bit_cast<std::uint64_t>(w.expected[reply.id]))
          << "request " << reply.id << ", chunk seed " << chunk_seed;
    }
  }
  server.stop();
}

// The parse stage is timed in nanoseconds and recorded in microseconds,
// so sub-microsecond parses show as fractions, not as whole 0s and 1s.
TEST(ServeParseE2E, ParseTimerResolvesSubMicrosecondParses) {
  obs::Registry::instance().reset();
  const obs::Histogram& parse = obs::histogram(
      "serve.request.parse_us", obs::quantile_latency_bounds_us());
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();
  PredictionClient client("127.0.0.1", server.port());
  std::string bytes;
  for (int i = 0; i < 1000; ++i) bytes += R"({"cmd":"ping"})" "\n";
  client.send_raw(bytes);
  for (int i = 0; i < 1000; ++i) client.read_line();
  server.stop();
  const auto snap = parse.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_NE(snap.sum, std::floor(snap.sum));
  // Sanitizers slow a parse several-fold; the bound holds for plain builds.
  if (!kSanitized) {
    EXPECT_LT(snap.quantile(50.0), 1.0);
  }
}

}  // namespace
}  // namespace xfl::serve
