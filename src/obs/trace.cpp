#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>

namespace xfl::obs {

namespace detail {
std::atomic<bool>& tracing_switch() noexcept {
  static std::atomic<bool> enabled{false};
  return enabled;
}
}  // namespace detail

void set_tracing_enabled(bool enabled) noexcept {
  detail::tracing_switch().store(enabled, std::memory_order_relaxed);
}

std::uint64_t monotonic_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           origin)
          .count());
}

std::uint64_t monotonic_us() noexcept { return monotonic_ns() / 1000; }

namespace {

/// One writer thread's event buffer. The owning thread appends under the
/// buffer's own mutex (uncontended except while a collector copies), and
/// `depth` is touched only by the owner. The collector holds a shared_ptr,
/// so buffers survive thread exit with no flush-on-exit hook.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
  std::int32_t depth = 0;
};

struct Collector {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

Collector& collector() {
  static Collector instance;
  return instance;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    auto& coll = collector();
    std::lock_guard lock(coll.mutex);
    fresh->tid = coll.next_tid++;
    coll.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

}  // namespace

void Span::begin(const char* name) noexcept {
  name_ = name;
  start_us_ = monotonic_us();
  ThreadBuffer& buffer = local_buffer();
  depth_ = buffer.depth++;
  active_ = true;
}

void Span::end() noexcept {
  const std::uint64_t now = monotonic_us();
  ThreadBuffer& buffer = local_buffer();
  --buffer.depth;
  TraceEvent event;
  event.name = name_;
  event.ts_us = start_us_;
  event.dur_us = now - start_us_;
  event.tid = buffer.tid;
  event.depth = depth_;
  std::lock_guard lock(buffer.mutex);
  buffer.events.push_back(event);
}

std::vector<TraceEvent> trace_events() {
  std::vector<TraceEvent> all;
  auto& coll = collector();
  std::lock_guard lock(coll.mutex);
  for (const auto& buffer : coll.buffers) {
    std::lock_guard buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
  }
  return all;
}

void clear_trace() {
  auto& coll = collector();
  std::lock_guard lock(coll.mutex);
  for (const auto& buffer : coll.buffers) {
    std::lock_guard buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

void write_chrome_trace(std::ostream& out) {
  const auto events = trace_events();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"xfl\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%llu,\"dur\":%llu,"
                  "\"args\":{\"depth\":%d}}",
                  i == 0 ? "" : ",", e.name, e.tid,
                  static_cast<unsigned long long>(e.ts_us),
                  static_cast<unsigned long long>(e.dur_us), e.depth);
    out << buf;
  }
  out << "]}";
}

}  // namespace xfl::obs
