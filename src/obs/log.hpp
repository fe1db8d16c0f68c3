// Leveled structured logger (pillar 1 of the observability layer).
//
//   XFL_LOG(info) << "edge model trained" << xfl::obs::kv("rows", n);
//
// A statement whose level is below XFL_LOG_MIN_LEVEL (a compile-time
// integer, default 0 = trace) compiles away entirely; one below the
// runtime level costs a single relaxed atomic load. Records are rendered
// either as text ("ts [level] msg key=value ...") or JSON lines, and the
// sink write is the only serialised step — message formatting happens on
// the calling thread, outside any lock.
//
// This header is dependency-free within the repo so that every layer
// (common included) can log without a link cycle.
#pragma once

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace xfl::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

const char* to_string(LogLevel level);

/// Append `text` to `out` as a JSON string, surrounding quotes included:
/// `"`, `\` and control characters are escaped (\n, \r, \t, else \u00XX),
/// every other byte is copied. The one JSON string writer: log records and
/// the serve wire protocol both use it.
void append_json_string(std::string& out, std::string_view text);

/// Parse "trace"/"debug"/"info"/"warn"/"error"/"off"; false on junk.
bool parse_log_level(std::string_view text, LogLevel& out);

struct LogConfig {
  LogLevel min_level = LogLevel::kInfo;
  bool json = false;          ///< JSON-lines instead of text records.
  std::FILE* sink = nullptr;  ///< nullptr = stderr. Not owned.
};

/// Install level/format/sink. Thread-safe; applies to subsequent records.
void configure_logging(const LogConfig& config);

/// Current runtime threshold (records below it are dropped).
LogLevel log_min_level();

namespace detail {
std::atomic<int>& runtime_level();
}  // namespace detail

inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >=
         detail::runtime_level().load(std::memory_order_relaxed);
}

/// One key=value field. `raw` values (numbers, bools) are emitted unquoted
/// in JSON; everything else is escaped and quoted.
struct LogField {
  std::string key;
  std::string value;
  bool raw = false;
};

template <typename T>
LogField kv(std::string_view key, const T& value) {
  LogField field;
  field.key = key;
  if constexpr (std::is_same_v<T, bool>) {
    field.value = value ? "true" : "false";
    field.raw = true;
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::ostringstream out;
    out.precision(15);
    out << value;
    field.value = out.str();
    field.raw = true;
  } else {
    std::ostringstream out;
    out << value;
    field.value = out.str();
  }
  return field;
}

/// Accumulates one record; the destructor hands it to the sink. Created
/// only after the level checks pass, so disabled statements never pay for
/// formatting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  LogMessage& operator<<(const LogField& field) {
    fields_.push_back(field);
    return *this;
  }
  LogMessage& operator<<(LogField&& field) {
    fields_.push_back(std::move(field));
    return *this;
  }
  template <typename T>
  LogMessage& operator<<(const T& value) {
    text_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream text_;
  std::vector<LogField> fields_;
};

/// Swallows the LogMessage in the enabled arm of XFL_LOG's ternary so both
/// arms have type void. `&` binds looser than `<<`.
struct LogVoidify {
  void operator&(const LogMessage&) const {}
};

// Level tokens for the macro (XFL_LOG(info) -> kLevel_info).
inline constexpr int kLevel_trace = 0;
inline constexpr int kLevel_debug = 1;
inline constexpr int kLevel_info = 2;
inline constexpr int kLevel_warn = 3;
inline constexpr int kLevel_error = 4;

}  // namespace xfl::obs

/// Compile-time floor: -DXFL_LOG_MIN_LEVEL=2 strips trace/debug statements
/// from the binary (the ternary condition is a constant, so the dead arm —
/// including its formatting — is removed).
#ifndef XFL_LOG_MIN_LEVEL
#define XFL_LOG_MIN_LEVEL 0
#endif

#define XFL_LOG(level)                                                       \
  (::xfl::obs::kLevel_##level < XFL_LOG_MIN_LEVEL ||                         \
   !::xfl::obs::log_enabled(                                                 \
       static_cast<::xfl::obs::LogLevel>(::xfl::obs::kLevel_##level)))       \
      ? (void)0                                                              \
      : ::xfl::obs::LogVoidify() &                                           \
            ::xfl::obs::LogMessage(                                          \
                static_cast<::xfl::obs::LogLevel>(                           \
                    ::xfl::obs::kLevel_##level),                             \
                __FILE__, __LINE__)
