// Scoped stage spans (pillar 3 of the observability layer).
//
//   void fit(...) {
//     XFL_SPAN("gbt.fit");
//     ...
//   }
//
// When tracing is off (the default) a span costs one relaxed atomic load.
// When on, entry/exit read the monotonic clock and append one event to a
// per-thread buffer (own mutex, effectively uncontended), so concurrent
// stages never serialise on a global lock. write_chrome_trace() renders
// everything recorded so far as Chrome trace_event JSON ("X" complete
// events) loadable in about:tracing or Perfetto; nesting is implied by
// interval containment per tid, and each event also carries its depth.
//
// Span names must be string literals (or otherwise outlive the trace
// session): events store the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace xfl::obs {

namespace detail {
std::atomic<bool>& tracing_switch() noexcept;
}  // namespace detail

inline bool tracing_enabled() noexcept {
  return detail::tracing_switch().load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool enabled) noexcept;

/// Microseconds on the process-wide monotonic clock (0 = first use).
/// Shared with the metrics wiring so span and histogram timings agree.
std::uint64_t monotonic_us() noexcept;

/// Nanoseconds on the same clock (monotonic_us() == monotonic_ns() / 1000),
/// for stages that take well under a microsecond.
std::uint64_t monotonic_ns() noexcept;

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_us = 0;   ///< Span start.
  std::uint64_t dur_us = 0;  ///< Span duration.
  std::uint32_t tid = 0;     ///< Small per-thread ordinal, not the OS tid.
  std::int32_t depth = 0;    ///< Nesting depth at entry (0 = top level).
};

/// Copy of every event recorded since the last clear_trace().
std::vector<TraceEvent> trace_events();

/// Drop all recorded events (buffers of finished threads included).
void clear_trace();

/// {"displayTimeUnit":"ms","traceEvents":[...]} — the Chrome/Perfetto
/// trace_event format.
void write_chrome_trace(std::ostream& out);

/// RAII span. Construct through XFL_SPAN so disabled builds stay terse.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (tracing_enabled()) begin(name);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name) noexcept;
  void end() noexcept;
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::int32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace xfl::obs

#define XFL_OBS_CONCAT_INNER(a, b) a##b
#define XFL_OBS_CONCAT(a, b) XFL_OBS_CONCAT_INNER(a, b)
#define XFL_SPAN(name) \
  ::xfl::obs::Span XFL_OBS_CONCAT(xfl_obs_span_, __LINE__)(name)
