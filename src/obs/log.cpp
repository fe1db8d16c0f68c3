#include "obs/log.hpp"

#include <chrono>
#include <cstring>
#include <mutex>

namespace xfl::obs {

namespace {

struct SinkState {
  std::mutex mutex;
  bool json = false;
  std::FILE* sink = nullptr;  // nullptr = stderr, resolved at write time.
};

SinkState& sink_state() {
  static SinkState state;
  return state;
}

/// Seconds since the Unix epoch, with sub-second precision.
double wall_time_s() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

/// File basename only: full build paths are noise in every record.
const char* basename_of(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool parse_log_level(std::string_view text, LogLevel& out) {
  for (const LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (text == to_string(level)) {
      out = level;
      return true;
    }
  }
  return false;
}

namespace detail {
std::atomic<int>& runtime_level() {
  static std::atomic<int> level{static_cast<int>(LogLevel::kInfo)};
  return level;
}
}  // namespace detail

void configure_logging(const LogConfig& config) {
  detail::runtime_level().store(static_cast<int>(config.min_level),
                                std::memory_order_relaxed);
  auto& state = sink_state();
  std::lock_guard lock(state.mutex);
  state.json = config.json;
  state.sink = config.sink;
}

LogLevel log_min_level() {
  return static_cast<LogLevel>(
      detail::runtime_level().load(std::memory_order_relaxed));
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  auto& state = sink_state();
  // Snapshot the format flag without the lock: a torn read is impossible
  // for a bool, and configure_logging mid-record at worst formats this one
  // record in the previous style.
  std::string record;
  record.reserve(128);
  const std::string msg = text_.str();
  const double ts = wall_time_s();
  char buf[64];
  if (state.json) {
    std::snprintf(buf, sizeof buf, "%.6f", ts);
    record += "{\"ts\":";
    record += buf;
    record += ",\"level\":\"";
    record += to_string(level_);
    record += "\",\"src\":\"";
    record += basename_of(file_);
    std::snprintf(buf, sizeof buf, ":%d", line_);
    record += buf;
    record += "\",\"msg\":";
    append_json_string(record, msg);
    for (const auto& field : fields_) {
      record += ',';
      append_json_string(record, field.key);
      record += ':';
      if (field.raw)
        record += field.value;
      else
        append_json_string(record, field.value);
    }
    record += "}\n";
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", ts);
    record += buf;
    record += " [";
    record += to_string(level_);
    record += "] ";
    record += msg;
    for (const auto& field : fields_) {
      record += ' ';
      record += field.key;
      record += '=';
      record += field.value;
    }
    record += '\n';
  }
  std::lock_guard lock(state.mutex);
  std::FILE* out = state.sink != nullptr ? state.sink : stderr;
  std::fwrite(record.data(), 1, record.size(), out);
  std::fflush(out);
}

}  // namespace xfl::obs
