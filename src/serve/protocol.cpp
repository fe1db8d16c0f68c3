#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/number.hpp"

namespace xfl::serve {

namespace {

/// Thrown internally to turn field-level validation failures into one
/// kBad frame; never escapes parse_frame.
struct FrameError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void reject(const std::string& what) { throw FrameError(what); }

using Type = JsonValue::Type;

// Every key a request frame may carry, in byte order. Validation reports
// the first offending key in this order, as a walk over a sorted DOM
// would, so a frame's error does not depend on how its keys are laid out.
enum Key {
  kBytes, kCmd, kConcurrency, kDeadlineMs, kDirs, kDst, kExplain, kFeedback,
  kFiles, kId, kLoad, kObservedMbps, kParallelism, kPath, kRegistry, kSrc,
  kTopK, kKeyCount
};
constexpr std::string_view kKeyNames[kKeyCount] = {
    "bytes",    "cmd",      "concurrency", "deadline_ms",   "dirs",
    "dst",      "explain",  "feedback",    "files",         "id",
    "load",     "observed_mbps",           "parallelism",   "path",
    "registry", "src",      "top_k"};

// The load object's keys, in byte order, and the fields they fill.
using Features = features::ContentionFeatures;
constexpr std::string_view kLoadNames[] = {
    "g_dst", "g_src", "k_din", "k_dout", "k_sin",
    "k_sout", "s_din", "s_dout", "s_sin", "s_sout"};
constexpr double Features::*kLoadFields[] = {
    &Features::g_dst, &Features::g_src, &Features::k_din, &Features::k_dout,
    &Features::k_sin, &Features::k_sout, &Features::s_din, &Features::s_dout,
    &Features::s_sin, &Features::s_sout};
constexpr std::size_t kLoadCount = std::size(kLoadNames);

/// Index of `key` in a name table, or -1.
template <std::size_t N>
int key_index(std::string_view key, const std::string_view (&names)[N]) {
  for (std::size_t i = 0; i < N; ++i)
    if (names[i] == key) return static_cast<int>(i);
  return -1;
}

std::string unknown_field(std::string_view key) {
  return "unknown field '" + std::string(key) + "'";
}

/// The last value one key took.
struct Slot {
  bool present = false;
  JsonScalar value;
};

/// The smallest key, in byte order, outside a schema.
struct UnknownKey {
  bool seen = false;
  std::string key;

  /// Note `name`; true when it is the smallest seen so far (ties too).
  bool note(std::string_view name) {
    if (seen && name > std::string_view(key)) return false;
    key.assign(name);
    seen = true;
    return true;
  }
};

/// One pass over a request frame, in place: it keeps the last value of
/// every schema key (a duplicate overwrites its slot), the members of the
/// last load object, and the smallest unknown key at each level. Values
/// outside the schema are syntax-checked and skipped. No DOM is built:
/// the scan allocates only for strings with escapes and for unknown keys
/// longer than the short-string buffer.
struct FrameScan {
  Slot slots[kKeyCount];
  /// Decoded text of the string values that carry escapes, for the keys
  /// whose text is kept; any other string value only needs its type.
  std::string id_text, cmd_text, path_text, feedback_text;
  Slot load[kLoadCount];
  UnknownKey unknown;
  UnknownKey load_unknown;
  bool load_unknown_number = false;  ///< load_unknown's last value.
  std::string discard;

  const Slot& operator[](Key key) const { return slots[key]; }

  /// Where schema key `k`'s string value is decoded if it has escapes.
  std::string& text_buffer(int k) {
    switch (k) {
      case kId: return id_text;
      case kCmd: return cmd_text;
      case kPath: return path_text;
      case kFeedback: return feedback_text;
      default: return discard;
    }
  }

  void scan(std::string_view line) {
    JsonLexer lexer(line);
    if (lexer.open(0) != '{') {
      lexer.value(0, discard);
      lexer.finish();
      reject("frame must be a JSON object");
    }
    lexer.object([&](std::string_view key) {
      const int k = key_index(key, kKeyNames);
      if (k < 0) {
        unknown.note(key);
        lexer.value(1, discard);
        return;
      }
      Slot& slot = slots[k];
      slot.present = true;
      if (k == kLoad) {
        // The last load object wins as a whole.
        for (Slot& field : load) field.present = false;
        load_unknown.seen = false;
        if (lexer.open(1) == '{') {
          slot.value = JsonScalar();
          slot.value.type = Type::kObject;
          lexer.object([&](std::string_view name) { scan_load(lexer, name); });
          return;
        }
      }
      slot.value = lexer.value(1, text_buffer(k));
    });
    lexer.finish();
  }

  void scan_load(JsonLexer& lexer, std::string_view name) {
    const int i = key_index(name, kLoadNames);
    if (i < 0) {
      const bool smallest = load_unknown.note(name);
      const Type type = lexer.value(2, discard).type;
      if (smallest) load_unknown_number = type == Type::kNumber;
      return;
    }
    load[i].present = true;
    load[i].value = lexer.value(2, discard);
  }
};

/// Reject the frame's first key in byte order that `problem` objects to.
/// `problem` returns nullptr for a key it takes, "" for a key outside its
/// schema, or the message; unknown keys always offend.
template <class Problem>
void check_keys(const FrameScan& scan, Problem problem) {
  for (int k = 0; k < kKeyCount; ++k) {
    if (!scan.slots[k].present) continue;
    const char* what = problem(static_cast<Key>(k));
    if (what == nullptr) continue;
    if (scan.unknown.seen && std::string_view(scan.unknown.key) < kKeyNames[k])
      break;
    reject(*what != '\0' ? std::string(what) : unknown_field(kKeyNames[k]));
  }
  if (scan.unknown.seen) reject(unknown_field(scan.unknown.key));
}

std::string frame_id(const Slot& id) {
  if (!id.present) return {};
  if (id.value.type == Type::kString) return std::string(id.value.string);
  if (id.value.type == Type::kNumber) {
    std::string text;
    append_json_number(text, id.value.number);
    return text;
  }
  reject("'id' must be a string or number");
}

[[noreturn]] void reject_field(Key key, const char* what) {
  reject("field '" + std::string(kKeyNames[key]) + "' " + what);
}

double number_field(const FrameScan& scan, Key key) {
  if (!scan[key].present)
    reject("missing required field '" + std::string(kKeyNames[key]) + "'");
  if (scan[key].value.type != Type::kNumber)
    reject_field(key, "must be a number");
  return scan[key].value.number;
}

/// Optional non-negative integral field with a default and an upper cap.
std::uint64_t integer_field(const FrameScan& scan, Key key,
                            std::uint64_t fallback, std::uint64_t max_value) {
  if (!scan[key].present) return fallback;
  if (scan[key].value.type != Type::kNumber)
    reject_field(key, "must be a number");
  const double d = scan[key].value.number;
  if (!(d >= 0.0) || d != std::floor(d) || d > 9.007199254740992e15)
    reject_field(key, "must be a non-negative integer");
  const auto n = static_cast<std::uint64_t>(d);
  if (n > max_value) reject_field(key, "out of range");
  return n;
}

Features load_features(const FrameScan& scan) {
  if (scan[kLoad].value.type != Type::kObject)
    reject("'load' must be an object");
  const UnknownKey& unknown = scan.load_unknown;
  Features features;
  for (std::size_t i = 0; i < kLoadCount; ++i) {
    const Slot& field = scan.load[i];
    if (!field.present) continue;
    const std::string_view name = kLoadNames[i];
    if (unknown.seen && std::string_view(unknown.key) < name) break;
    if (field.value.type != Type::kNumber)
      reject("load field '" + std::string(name) + "' must be a number");
    if (!std::isfinite(field.value.number))
      reject("load field '" + std::string(name) + "' must be finite");
    features.*kLoadFields[i] = field.value.number;
  }
  if (unknown.seen)
    reject(scan.load_unknown_number
               ? "unknown load field '" + unknown.key + "'"
               : "load field '" + unknown.key + "' must be a number");
  return features;
}

Frame admin_frame(const FrameScan& scan, std::string id) {
  const JsonScalar& cmd = scan[kCmd].value;
  if (cmd.type != Type::kString) reject("'cmd' must be a string");
  check_keys(scan, [&](Key key) -> const char* {
    const Type type = scan[key].value.type;
    switch (key) {
      case kCmd:
      case kId:
        return nullptr;
      case kPath:
        return type == Type::kString ? nullptr : "'path' must be a string";
      case kRegistry:
        return type == Type::kBool ? nullptr : "'registry' must be a boolean";
      default:
        return "";
    }
  });
  Frame frame;
  frame.kind = Frame::Kind::kAdmin;
  frame.reply.id = std::move(id);
  frame.admin.cmd = cmd.string;
  frame.admin.path = scan[kPath].value.string;
  frame.admin.registry = scan[kRegistry].value.boolean;
  if (frame.admin.cmd != "ping" && frame.admin.cmd != "stats" &&
      frame.admin.cmd != "reload" && frame.admin.cmd != "retrain-status")
    reject("unknown cmd '" + frame.admin.cmd + "'");
  if (!frame.admin.path.empty() && frame.admin.cmd != "reload")
    reject("'path' is only valid with cmd 'reload'");
  if (scan[kRegistry].present && frame.admin.cmd != "stats")
    reject("'registry' is only valid with cmd 'stats'");
  return frame;
}

Frame feedback_frame(const FrameScan& scan, std::string id) {
  check_keys(scan, [](Key key) {
    return key == kId || key == kFeedback || key == kObservedMbps ? nullptr
                                                                  : "";
  });
  Frame frame;
  frame.kind = Frame::Kind::kFeedback;
  frame.reply.id = std::move(id);
  const JsonScalar& trace = scan[kFeedback].value;
  if (trace.type != Type::kString)
    reject("'feedback' must be a trace-id string");
  if (!parse_trace_id(trace.string, frame.feedback.trace_id))
    reject("'feedback' must look like \"t<number>\"");
  frame.feedback.observed_mbps = number_field(scan, kObservedMbps);
  if (!std::isfinite(frame.feedback.observed_mbps) ||
      !(frame.feedback.observed_mbps > 0.0))
    reject("'observed_mbps' must be finite and positive");
  return frame;
}

Frame predict_frame(const FrameScan& scan, std::string id) {
  check_keys(scan, [](Key key) -> const char* {
    switch (key) {
      case kCmd:
      case kFeedback:
      case kObservedMbps:
      case kPath:
      case kRegistry:
        return "";
      default:
        return nullptr;
    }
  });
  Frame frame;
  frame.kind = Frame::Kind::kPredict;
  frame.reply.id = std::move(id);

  if (scan[kExplain].present) {
    if (scan[kExplain].value.type != Type::kBool)
      reject("'explain' must be a boolean");
    frame.predict.explain = scan[kExplain].value.boolean;
  }
  frame.reply.top_k =
      static_cast<std::uint16_t>(integer_field(scan, kTopK, 0, 0xffff));
  if (scan[kTopK].present && !frame.predict.explain)
    reject("'top_k' is only valid with 'explain'");

  // The 32-bit fields are capped before they narrow; the transfer's own
  // ranges are checked once it is whole.
  constexpr std::uint64_t kU32 = 0xffffffffu;
  constexpr std::uint64_t kU64 = ~std::uint64_t{0};
  auto& transfer = frame.predict.transfer;
  transfer.src =
      static_cast<endpoint::EndpointId>(integer_field(scan, kSrc, 0, kU32));
  if (!scan[kSrc].present) reject("missing required field 'src'");
  transfer.dst =
      static_cast<endpoint::EndpointId>(integer_field(scan, kDst, 0, kU32));
  if (!scan[kDst].present) reject("missing required field 'dst'");
  transfer.bytes = number_field(scan, kBytes);
  transfer.files = integer_field(scan, kFiles, 1, kU64);
  transfer.dirs = integer_field(scan, kDirs, 1, kU64);
  transfer.concurrency =
      static_cast<std::uint32_t>(integer_field(scan, kConcurrency, 4, kU32));
  transfer.parallelism =
      static_cast<std::uint32_t>(integer_field(scan, kParallelism, 4, kU32));
  if (const char* field = transfer.invalid_field())
    reject("field '" + std::string(field) + "' out of range");
  frame.predict.deadline_ms =
      integer_field(scan, kDeadlineMs, 0, 86400u * 1000u);
  if (scan[kLoad].present) frame.predict.load = load_features(scan);
  return frame;
}

/// True when any contention field is set; idle loads are elided on the
/// wire (the server defaults them identically).
bool any_load(const features::ContentionFeatures& load) {
  return load.k_sout != 0.0 || load.k_sin != 0.0 || load.k_dout != 0.0 ||
         load.k_din != 0.0 || load.g_src != 0.0 || load.g_dst != 0.0 ||
         load.s_sout != 0.0 || load.s_sin != 0.0 || load.s_dout != 0.0 ||
         load.s_din != 0.0;
}

/// Append `"key":value`, after a comma unless it opens the object. Numbers
/// go through the number codec (non-finite doubles as null); text goes in
/// verbatim, or as a JSON string when `quote`.
template <class T>
void append_field(std::string& out, const char* key, const T& value,
                  bool quote = false) {
  if (out.back() != '{') out.push_back(',');
  append_json_string(out, key);
  out.push_back(':');
  if constexpr (std::is_same_v<T, double>)
    append_json_number(out, value);
  else if constexpr (std::is_integral_v<T>)
    append_number(out, value);
  else if (quote)
    append_json_string(out, value);
  else
    out += value;
}

}  // namespace

Frame parse_frame(std::string_view line) {
  Frame bad;
  bad.kind = Frame::Kind::kBad;
  if (line.size() > kMaxFrameBytes) {
    bad.error = "frame exceeds " + std::to_string(kMaxFrameBytes) + " bytes";
    return bad;
  }
  try {
    FrameScan scan;
    scan.scan(line);
    // Kept for the error response if validation fails below.
    bad.reply.id = frame_id(scan[kId]);
    if (scan[kCmd].present) return admin_frame(scan, bad.reply.id);
    if (scan[kFeedback].present) return feedback_frame(scan, bad.reply.id);
    return predict_frame(scan, bad.reply.id);
  } catch (const std::exception& error) {
    bad.error = error.what();
    return bad;
  }
}

std::string trace_id_string(std::uint64_t trace_id) {
  std::string out = "t";
  append_number(out, trace_id);
  return out;
}

bool parse_trace_id(std::string_view text, std::uint64_t& trace_id) {
  return text.starts_with('t') && parse_number(text.substr(1), trace_id);
}

namespace {

std::string request_line(const std::string& id,
                         const core::PlannedTransfer& transfer,
                         const features::ContentionFeatures& load,
                         std::uint64_t deadline_ms, bool explain,
                         std::uint16_t top_k) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "src", transfer.src);
  append_field(out, "dst", transfer.dst);
  append_field(out, "bytes", transfer.bytes);
  append_field(out, "files", transfer.files);
  append_field(out, "dirs", transfer.dirs);
  append_field(out, "concurrency", transfer.concurrency);
  append_field(out, "parallelism", transfer.parallelism);
  if (deadline_ms > 0)
    append_field(out, "deadline_ms", deadline_ms);
  if (explain) {
    append_field(out, "explain", "true");
    if (top_k > 0) append_field(out, "top_k", top_k);
  }
  if (any_load(load)) {
    std::string nested = "{";
    append_field(nested, "k_sout", load.k_sout);
    append_field(nested, "k_sin", load.k_sin);
    append_field(nested, "k_dout", load.k_dout);
    append_field(nested, "k_din", load.k_din);
    append_field(nested, "g_src", load.g_src);
    append_field(nested, "g_dst", load.g_dst);
    append_field(nested, "s_sout", load.s_sout);
    append_field(nested, "s_sin", load.s_sin);
    append_field(nested, "s_dout", load.s_dout);
    append_field(nested, "s_din", load.s_din);
    nested.push_back('}');
    append_field(out, "load", nested);
  }
  out += "}\n";
  return out;
}

}  // namespace

std::string predict_request_line(const std::string& id,
                                 const core::PlannedTransfer& transfer,
                                 const features::ContentionFeatures& load,
                                 std::uint64_t deadline_ms) {
  return request_line(id, transfer, load, deadline_ms, /*explain=*/false, 0);
}

std::string explain_request_line(const std::string& id,
                                 const core::PlannedTransfer& transfer,
                                 const features::ContentionFeatures& load,
                                 std::uint64_t deadline_ms,
                                 std::uint16_t top_k) {
  return request_line(id, transfer, load, deadline_ms, /*explain=*/true,
                      top_k);
}

std::string feedback_request_line(const std::string& id,
                                  const std::string& trace_id,
                                  double observed_mbps) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "feedback", trace_id, /*quote=*/true);
  append_field(out, "observed_mbps", observed_mbps);
  out += "}\n";
  return out;
}

std::string feedback_response(const std::string& id,
                              const std::string& trace_id,
                              const ServeMonitor::FeedbackResult& result) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "trace_id", trace_id, /*quote=*/true);
  append_field(out, "matched", result.matched ? "true" : "false");
  if (result.matched) {
    append_field(out, "ape_pct", result.ape_pct);
    append_field(out, "predicted_mbps", result.predicted_mbps);
    append_field(out, "version", result.model_version);
    append_field(out, "mdape_pct", result.mdape_pct);
    append_field(out, "window", result.window_count);
    append_field(out, "alarm", result.alarm ? "true" : "false");
  }
  out += "}\n";
  return out;
}

std::string pong_response(const std::string& id, std::uint64_t model_version) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "pong", "true");
  append_field(out, "version", model_version);
  out += "}\n";
  return out;
}

std::string retrain_status_response(const std::string& id,
                                    const std::string& retrain_json) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "retrain",
               retrain_json.empty() ? "{\"enabled\":false}" : retrain_json);
  out += "}\n";
  return out;
}

std::string reload_response(const std::string& id,
                            std::uint64_t model_version) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "reloaded", "true");
  append_field(out, "version", model_version);
  out += "}\n";
  return out;
}

namespace {

std::string quantiles_object(const StageQuantiles& q) {
  std::string out = "{";
  append_field(out, "count", q.count);
  append_field(out, "p50", q.p50);
  append_field(out, "p95", q.p95);
  append_field(out, "p99", q.p99);
  out.push_back('}');
  return out;
}

}  // namespace

std::string stats_response(const std::string& id, const StatsReport& report) {
  std::string out = "{";
  append_field(out, "id", id, /*quote=*/true);
  append_field(out, "ok", "true");
  append_field(out, "queue_depth", report.queue_depth);
  append_field(out, "connections", report.connections);
  append_field(out, "shards", report.shards);
  append_field(out, "steals", report.steals);
  append_field(out, "version", report.model_version);
  append_field(out, "kernel", report.kernel, /*quote=*/true);
  append_field(out, "requests", report.requests);
  append_field(out, "rejected", report.rejected);
  append_field(out, "uptime_seconds", report.uptime_seconds);

  std::string latency = "{";
  for (const auto& [stage, quantiles] : report.latency_us)
    append_field(latency, stage.c_str(), quantiles_object(quantiles));
  latency.push_back('}');
  append_field(out, "latency_us", latency);

  std::string batch = "{";
  append_field(batch, "batches", report.batches);
  append_field(batch, "rows", report.batch_rows);
  append_field(batch, "size", quantiles_object(report.batch_size));
  batch.push_back('}');
  append_field(out, "batch", batch);

  std::string versions = "{";
  for (const auto& [version, stats] : report.versions) {
    std::string entry = "{";
    append_field(entry, "predictions", stats.predictions);
    append_field(entry, "feedback", stats.feedback);
    append_field(entry, "mdape_pct", stats.mdape_pct);
    append_field(entry, "window", stats.window_count);
    append_field(entry, "alarm", stats.alarm ? "true" : "false");
    entry.push_back('}');
    append_field(versions, std::to_string(version).c_str(), entry);
  }
  versions.push_back('}');
  append_field(out, "versions", versions);

  std::string drift = "{";
  append_field(drift, "alarm", report.drift_alarm ? "true" : "false");
  append_field(drift, "alarms_total", report.drift_alarms_total);
  append_field(drift, "window", report.drift_options.drift_window);
  append_field(drift, "threshold_pct",
               report.drift_options.drift_threshold_pct);
  append_field(drift, "min_samples",
               report.drift_options.drift_min_samples);
  append_field(drift, "feedback", report.feedback_count);
  append_field(drift, "unmatched", report.feedback_unmatched);

  const auto& shift = report.attribution_shift;
  std::string shift_json = "{";
  append_field(shift_json, "valid", shift.valid ? "true" : "false");
  append_field(shift_json, "events_total", shift.events);
  if (shift.valid) {
    append_field(shift_json, "model_version",
                 shift.model_version);
    std::string ranked = "[";
    for (const auto& entry : shift.ranked) {
      if (ranked.back() != '[') ranked.push_back(',');
      std::string item = "{";
      append_field(item, "feature", entry.feature, /*quote=*/true);
      append_field(item, "baseline_mean_mbps",
                   entry.baseline_mean_mbps);
      append_field(item, "alarm_mean_mbps",
                   entry.alarm_mean_mbps);
      append_field(item, "delta_mbps", entry.delta_mbps);
      item.push_back('}');
      ranked += item;
    }
    ranked.push_back(']');
    append_field(shift_json, "ranked", ranked);
  }
  shift_json.push_back('}');
  append_field(drift, "attribution_shift", shift_json);
  drift.push_back('}');
  append_field(out, "drift", drift);

  if (!report.registry_json.empty())
    append_field(out, "metrics", report.registry_json);
  out += "}\n";
  return out;
}

// ------------------------------------------------------------ binary codec

namespace {

// Integers travel little-endian byte by byte; doubles travel as the
// little-endian bytes of their IEEE-754 bit pattern, so a decoded rate is
// bit-identical to the encoded one (the binary analogue of the number codec).

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Bounds-checked cursor over a payload; every read either succeeds in
/// full or returns false with the cursor untouched — no partial reads,
/// no access past the view.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t off = 0;

  explicit Cursor(std::string_view payload)
      : data(payload.data()), size(payload.size()) {}

  std::size_t remaining() const { return size - off; }

  bool u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = static_cast<std::uint8_t>(data[off++]);
    return true;
  }

  bool u16(std::uint16_t& v) {
    if (remaining() < 2) return false;
    v = 0;
    for (int shift = 0; shift < 16; shift += 8)
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(
                  static_cast<std::uint8_t>(data[off++]))
                  << shift);
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int shift = 0; shift < 32; shift += 8)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[off++]))
           << shift;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int shift = 0; shift < 64; shift += 8)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[off++]))
           << shift;
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  bool bytes(std::string& v, std::size_t n) {
    if (remaining() < n) return false;
    v.assign(data + off, n);
    off += n;
    return true;
  }
};

/// Open a frame: emit the length placeholder (patched by seal_frame) and
/// the type byte; returns the offset of the placeholder.
std::size_t open_frame(std::string& out, BinaryType type) {
  const std::size_t at = out.size();
  put_u32(out, 0);
  put_u8(out, static_cast<std::uint8_t>(type));
  return at;
}

void seal_frame(std::string& out, std::size_t at) {
  const std::uint64_t length = out.size() - at - 4;
  XFL_EXPECTS(length >= 1 && length <= kMaxFrameBytes);
  for (int i = 0; i < 4; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<char>((length >> (8 * i)) & 0xff);
}

constexpr std::uint8_t kLoadFlag = 0x01;  ///< kPredict: load block present.
constexpr std::uint8_t kEdgeFlag = 0x01;  ///< kPredictOk: edge model answered.

}  // namespace

BinaryDecode decode_binary_frame(std::string_view buffer) {
  BinaryDecode result;
  if (buffer.size() < 5) return result;  // kNeedMore: header incomplete.
  Cursor cursor(buffer);
  std::uint32_t length = 0;
  cursor.u32(length);
  if (length < 1) {
    result.status = BinaryDecode::Status::kBad;
    result.error = "binary frame length must cover the type byte";
    return result;
  }
  if (length > kMaxFrameBytes) {
    result.status = BinaryDecode::Status::kBad;
    result.error = "binary frame exceeds " + std::to_string(kMaxFrameBytes) +
                   " bytes";
    return result;
  }
  std::uint8_t type = 0;
  cursor.u8(type);
  if (type > static_cast<std::uint8_t>(BinaryType::kExplainOk)) {
    result.status = BinaryDecode::Status::kBad;
    result.error = "unknown binary frame type " + std::to_string(type);
    return result;
  }
  if (buffer.size() < 4u + length) return result;  // kNeedMore: body short.
  result.status = BinaryDecode::Status::kFrame;
  result.consumed = 4u + length;
  result.type = static_cast<BinaryType>(type);
  result.payload = buffer.substr(5, length - 1);
  return result;
}

namespace {

/// Shared body of kPredict / kExplain requests (everything between the
/// frame header and the kExplain-only trailing top_k).
void put_predict_payload(std::string& out, std::uint64_t id,
                         const core::PlannedTransfer& transfer,
                         const features::ContentionFeatures& load,
                         std::uint64_t deadline_ms) {
  put_u64(out, id);
  put_u32(out, static_cast<std::uint32_t>(transfer.src));
  put_u32(out, static_cast<std::uint32_t>(transfer.dst));
  put_f64(out, transfer.bytes);
  put_u64(out, transfer.files);
  put_u64(out, transfer.dirs);
  put_u32(out, transfer.concurrency);
  put_u32(out, transfer.parallelism);
  put_u32(out, static_cast<std::uint32_t>(deadline_ms));
  const double slots[10] = {load.k_sout, load.k_sin,  load.k_dout,
                            load.k_din,  load.g_src,  load.g_dst,
                            load.s_sout, load.s_sin,  load.s_dout,
                            load.s_din};
  bool any = false;
  for (const double v : slots) any |= v != 0.0;
  put_u8(out, any ? kLoadFlag : 0);
  if (any)
    for (const double v : slots) put_f64(out, v);
}

}  // namespace

std::string binary_predict_request(std::uint64_t id,
                                   const core::PlannedTransfer& transfer,
                                   const features::ContentionFeatures& load,
                                   std::uint64_t deadline_ms) {
  std::string out;
  const std::size_t at = open_frame(out, BinaryType::kPredict);
  put_predict_payload(out, id, transfer, load, deadline_ms);
  seal_frame(out, at);
  return out;
}

std::string binary_explain_request(std::uint64_t id,
                                   const core::PlannedTransfer& transfer,
                                   const features::ContentionFeatures& load,
                                   std::uint64_t deadline_ms,
                                   std::uint16_t top_k) {
  std::string out;
  const std::size_t at = open_frame(out, BinaryType::kExplain);
  put_predict_payload(out, id, transfer, load, deadline_ms);
  put_u16(out, top_k);
  seal_frame(out, at);
  return out;
}

namespace {

Frame parse_binary_predict_impl(std::string_view payload, bool explain) {
  Frame frame;
  frame.kind = Frame::Kind::kBad;
  frame.reply.packed = true;
  Cursor cursor(payload);
  std::uint64_t id = 0;
  if (!cursor.u64(id)) {
    frame.error = "binary predict payload truncated before id";
    return frame;
  }
  // From here on the id is known; keep it on the bad frame so the error
  // response stays correlatable, exactly like the JSON parser does.
  frame.reply.wire_id = id;

  auto reject = [&frame](std::string what) {
    frame.kind = Frame::Kind::kBad;
    frame.error = std::move(what);
    return frame;
  };

  auto& transfer = frame.predict.transfer;
  std::uint32_t deadline_ms = 0;
  std::uint8_t flags = 0;
  if (!cursor.u32(transfer.src) || !cursor.u32(transfer.dst) ||
      !cursor.f64(transfer.bytes) || !cursor.u64(transfer.files) ||
      !cursor.u64(transfer.dirs) || !cursor.u32(transfer.concurrency) ||
      !cursor.u32(transfer.parallelism) || !cursor.u32(deadline_ms) ||
      !cursor.u8(flags))
    return reject("binary predict payload truncated");
  if (const char* field = transfer.invalid_field())
    return reject("'" + std::string(field) + "' out of range");
  if (deadline_ms > 86400u * 1000u) return reject("'deadline_ms' out of range");
  if ((flags & ~kLoadFlag) != 0)
    return reject("unknown binary predict flags");
  if ((flags & kLoadFlag) != 0) {
    double slots[10];
    for (double& slot : slots)
      if (!cursor.f64(slot))
        return reject("binary predict load block truncated");
    for (const double slot : slots)
      if (!std::isfinite(slot)) return reject("load field must be finite");
    auto& load = frame.predict.load;
    load.k_sout = slots[0];
    load.k_sin = slots[1];
    load.k_dout = slots[2];
    load.k_din = slots[3];
    load.g_src = slots[4];
    load.g_dst = slots[5];
    load.s_sout = slots[6];
    load.s_sin = slots[7];
    load.s_dout = slots[8];
    load.s_din = slots[9];
  }
  if (explain) {
    std::uint16_t top_k = 0;
    if (!cursor.u16(top_k))
      return reject("binary explain payload truncated before top_k");
    frame.predict.explain = true;
    frame.reply.top_k = top_k;
  }
  if (cursor.remaining() != 0)
    return reject("binary predict payload has trailing bytes");

  frame.predict.deadline_ms = deadline_ms;
  frame.kind = Frame::Kind::kPredict;
  return frame;
}

}  // namespace

Frame parse_binary_predict(std::string_view payload) {
  return parse_binary_predict_impl(payload, /*explain=*/false);
}

Frame parse_binary_explain(std::string_view payload) {
  return parse_binary_predict_impl(payload, /*explain=*/true);
}

namespace {

/// Feature indices ordered by |contribution| descending (ties keep the
/// model's feature order), truncated to top_k when top_k > 0.
std::vector<std::size_t> attribution_order(
    const std::vector<double>& contributions, std::uint16_t top_k) {
  std::vector<std::size_t> order(contributions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&contributions](std::size_t a, std::size_t b) {
                     return std::abs(contributions[a]) >
                            std::abs(contributions[b]);
                   });
  if (top_k > 0 && top_k < order.size()) order.resize(top_k);
  return order;
}

/// u16 length + bytes. The cap keeps a frame bounded whatever the text's
/// source; a truncated message beats an unparseable frame.
void put_text(std::string& out, std::string_view text) {
  const std::size_t length = std::min<std::size_t>(text.size(), 0xffff);
  put_u16(out, static_cast<std::uint16_t>(length));
  out.append(text.data(), length);
}

}  // namespace

std::string encode_reply(const ReplyTo& to, const PredictOutcome& outcome,
                         std::uint64_t trace_id, double server_ms) {
  const bool explained = outcome.ok && outcome.explained;
  const core::RateExplanation& why = outcome.explanation;
  const std::vector<std::size_t> order =
      explained ? attribution_order(why.contributions, to.top_k)
                : std::vector<std::size_t>{};
  std::string out;
  if (to.packed) {
    const std::size_t at =
        open_frame(out, !outcome.ok  ? BinaryType::kError
                        : explained ? BinaryType::kExplainOk
                                    : BinaryType::kPredictOk);
    put_u64(out, to.wire_id);
    if (!outcome.ok) {
      put_u64(out, trace_id);
      put_f64(out, server_ms);
      put_text(out, outcome.error);
      put_text(out, outcome.message);
    } else {
      put_f64(out, outcome.rate_mbps);
      put_u8(out, outcome.edge_model ? kEdgeFlag : 0);
      put_u64(out, outcome.model_version);
      put_u64(out, trace_id);
      put_f64(out, server_ms);
    }
    if (explained) {
      put_f64(out, why.raw_mbps);
      put_f64(out, why.bias_mbps);
      put_f64(out, why.low_mbps);
      put_f64(out, why.high_mbps);
      put_u16(out, static_cast<std::uint16_t>(order.size()));
      for (const std::size_t c : order) {
        put_text(out, why.feature_names[c]);
        put_f64(out, why.contributions[c]);
      }
    }
    seal_frame(out, at);
    return out;
  }

  const std::size_t at = to.wrap ? open_frame(out, BinaryType::kJson) : 0;
  out.push_back('{');
  append_field(out, "id", to.id, /*quote=*/true);
  append_field(out, "ok", outcome.ok ? "true" : "false");
  if (outcome.ok) {
    append_field(out, "rate_mbps", outcome.rate_mbps);
    if (explained) {
      append_field(out, "raw_mbps", why.raw_mbps);
      append_field(out, "bias_mbps", why.bias_mbps);
      append_field(out, "low_mbps", why.low_mbps);
      append_field(out, "high_mbps", why.high_mbps);
    }
    append_field(out, "model", outcome.edge_model ? "edge" : "global",
                 /*quote=*/true);
    append_field(out, "version", outcome.model_version);
  } else {
    append_field(out, "error", outcome.error, /*quote=*/true);
    append_field(out, "message", outcome.message, /*quote=*/true);
  }
  if (trace_id != 0) {
    append_field(out, "trace_id", trace_id_string(trace_id), /*quote=*/true);
    append_field(out, "server_ms", server_ms);
  }
  if (explained) {
    out += ",\"contributions\":[";
    for (const std::size_t c : order) {
      if (out.back() != '[') out.push_back(',');
      out.push_back('{');
      append_field(out, "feature", why.feature_names[c], /*quote=*/true);
      append_field(out, "mbps", why.contributions[c]);
      out.push_back('}');
    }
    out.push_back(']');
  }
  out.push_back('}');
  if (to.wrap)
    seal_frame(out, at);
  else
    out.push_back('\n');
  return out;
}

std::string binary_json_frame(std::string_view json_document) {
  while (!json_document.empty() &&
         (json_document.back() == '\n' || json_document.back() == '\r'))
    json_document.remove_suffix(1);
  std::string out;
  const std::size_t at = open_frame(out, BinaryType::kJson);
  out.append(json_document.data(), json_document.size());
  seal_frame(out, at);
  return out;
}

BinaryPredictReply parse_binary_reply(BinaryType type,
                                      std::string_view payload) {
  BinaryPredictReply reply;
  Cursor cursor(payload);
  if (type == BinaryType::kPredictOk) {
    std::uint8_t flags = 0;
    if (!cursor.u64(reply.id) || !cursor.f64(reply.rate_mbps) ||
        !cursor.u8(flags) || !cursor.u64(reply.model_version) ||
        !cursor.u64(reply.trace_id) || !cursor.f64(reply.server_ms) ||
        cursor.remaining() != 0)
      throw std::runtime_error("malformed binary predict response");
    reply.ok = true;
    reply.edge_model = (flags & kEdgeFlag) != 0;
    return reply;
  }
  if (type == BinaryType::kExplainOk) {
    std::uint8_t flags = 0;
    std::uint16_t entries = 0;
    if (!cursor.u64(reply.id) || !cursor.f64(reply.rate_mbps) ||
        !cursor.u8(flags) || !cursor.u64(reply.model_version) ||
        !cursor.u64(reply.trace_id) || !cursor.f64(reply.server_ms) ||
        !cursor.f64(reply.raw_mbps) || !cursor.f64(reply.bias_mbps) ||
        !cursor.f64(reply.low_mbps) || !cursor.f64(reply.high_mbps) ||
        !cursor.u16(entries))
      throw std::runtime_error("malformed binary explain response");
    reply.contributions.reserve(entries);
    for (std::uint16_t e = 0; e < entries; ++e) {
      std::uint16_t name_len = 0;
      std::string name;
      double mbps = 0.0;
      if (!cursor.u16(name_len) || !cursor.bytes(name, name_len) ||
          !cursor.f64(mbps))
        throw std::runtime_error("malformed binary explain response");
      reply.contributions.emplace_back(std::move(name), mbps);
    }
    if (cursor.remaining() != 0)
      throw std::runtime_error("malformed binary explain response");
    reply.ok = true;
    reply.explained = true;
    reply.edge_model = (flags & kEdgeFlag) != 0;
    return reply;
  }
  if (type == BinaryType::kError) {
    std::uint16_t code_len = 0, msg_len = 0;
    if (!cursor.u64(reply.id) || !cursor.u64(reply.trace_id) ||
        !cursor.f64(reply.server_ms) || !cursor.u16(code_len) ||
        !cursor.bytes(reply.error, code_len) || !cursor.u16(msg_len) ||
        !cursor.bytes(reply.message, msg_len) || cursor.remaining() != 0)
      throw std::runtime_error("malformed binary error response");
    reply.ok = false;
    return reply;
  }
  throw std::runtime_error("not a binary reply frame");
}

}  // namespace xfl::serve
