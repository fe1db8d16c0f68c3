// Observability-layer contracts: exact counter totals under concurrent
// writers, histogram bucketing, span nesting, trace-JSON well-formedness,
// and the logger's sink formats. The concurrency cases are the ones that
// matter under -DXFL_SANITIZE=thread (tier2-obs label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using xfl::obs::Registry;

// ---------------------------------------------------------------------------
// Minimal JSON validator: enough structure checking to guarantee the
// emitted documents parse (balanced containers outside strings, legal
// escapes, no trailing garbage). Not a full parser by design.
bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool saw_value = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        if (std::string("\"\\/bfnrtu").find(c) == std::string::npos)
          return false;
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Unescaped control character.
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; saw_value = true; break;
      case '{': case '[': stack.push_back(c); saw_value = true; break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty() && saw_value;
}

TEST(JsonValidator, AcceptsAndRejects) {
  EXPECT_TRUE(json_well_formed(R"({"a":[1,2,{"b":"c\n"}]})"));
  EXPECT_FALSE(json_well_formed(R"({"a":1)"));
  EXPECT_FALSE(json_well_formed(R"({"a":"unterminated})"));
  EXPECT_FALSE(json_well_formed(R"(["bad\q"])"));
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterExactUnderConcurrentWriters) {
  auto& counter = xfl::obs::counter("test.obs.concurrent");
  Registry::instance().reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, CounterSameNameSameInstance) {
  auto& a = xfl::obs::counter("test.obs.same");
  auto& b = xfl::obs::counter("test.obs.same");
  EXPECT_EQ(&a, &b);
  Registry::instance().reset();
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST(Metrics, GaugeTracksValueAndMax) {
  auto& gauge = xfl::obs::gauge("test.obs.gauge");
  Registry::instance().reset();
  gauge.set(5.0);
  gauge.set(11.0);
  gauge.set(2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 11.0);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  static constexpr double kBounds[] = {1.0, 10.0, 100.0};
  auto& histogram = xfl::obs::histogram("test.obs.hist", kBounds);
  Registry::instance().reset();
  histogram.record(0.5);    // <= 1
  histogram.record(1.0);    // <= 1 (bound inclusive)
  histogram.record(7.0);    // <= 10
  histogram.record(1000.0); // overflow
  const auto snapshot = histogram.snapshot();
  ASSERT_EQ(snapshot.upper_bounds.size(), 3u);
  ASSERT_EQ(snapshot.counts.size(), 4u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 0u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.count, 4u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 1008.5);
}

TEST(Metrics, HistogramExactUnderConcurrentWriters) {
  static constexpr double kBounds[] = {10.0, 100.0};
  auto& histogram = xfl::obs::histogram("test.obs.hist_mt", kBounds);
  Registry::instance().reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&histogram] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        histogram.record(static_cast<double>(i % 200));
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.snapshot().count, kThreads * kPerThread);
}

TEST(Metrics, DisabledSwitchDropsWrites) {
  auto& counter = xfl::obs::counter("test.obs.disabled");
  Registry::instance().reset();
  xfl::obs::set_metrics_enabled(false);
  counter.add(100);
  xfl::obs::set_metrics_enabled(true);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST(Metrics, RegistryJsonWellFormed) {
  Registry::instance().reset();
  xfl::obs::counter("test.obs.json_counter").add(42);
  xfl::obs::gauge("test.obs.json_gauge").set(3.5);
  xfl::obs::histogram("test.obs.json_hist").record(55.0);
  const std::string json = Registry::instance().to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"test.obs.json_counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
}

TEST(Metrics, CountersCompactListsNonzero) {
  Registry::instance().reset();
  xfl::obs::counter("test.obs.compact").add(9);
  const std::string compact = Registry::instance().counters_compact();
  EXPECT_NE(compact.find("test.obs.compact=9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Quantile extraction (the serve-path latency exposition rides on this).

TEST(Metrics, LogBucketBoundsAreGeometricAndCoverTheRange) {
  const auto bounds = xfl::obs::log_bucket_bounds(1.0, 1000.0, 2.0);
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1.0);
  // Geometric interior; the final bound is clamped to hi exactly so the
  // overflow clamp never reports beyond the instrumented range.
  EXPECT_EQ(bounds.back(), 1000.0);
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i)
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
  // Degenerate arguments yield no bounds rather than an infinite loop.
  EXPECT_TRUE(xfl::obs::log_bucket_bounds(0.0, 1000.0, 2.0).empty());
  EXPECT_TRUE(xfl::obs::log_bucket_bounds(1.0, 1000.0, 1.0).empty());
  EXPECT_TRUE(xfl::obs::log_bucket_bounds(1000.0, 1.0, 2.0).empty());
}

TEST(Metrics, QuantileInterpolatesWithinBucketResolution) {
  xfl::obs::Histogram hist(xfl::obs::log_bucket_bounds(1.0, 1.0e6, 1.08));
  // Uniform 1..10000: exact quantiles are known, so the estimator must
  // land within one bucket's relative width (~8%, interpolation halves
  // that in expectation; assert the conservative bound).
  for (int v = 1; v <= 10000; ++v) hist.record(static_cast<double>(v));
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 10000u);
  EXPECT_EQ(snap.counts.back(), 0u) << "overflow bucket must stay empty";
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = p / 100.0 * 10000.0;
    const double estimate = snap.quantile(p);
    EXPECT_NEAR(estimate, exact, exact * 0.08 + 1.0) << "p" << p;
  }
  // Quantiles are monotone in p.
  EXPECT_LE(snap.quantile(50.0), snap.quantile(95.0));
  EXPECT_LE(snap.quantile(95.0), snap.quantile(99.0));
}

TEST(Metrics, QuantileEdgeCases) {
  xfl::obs::Histogram hist(xfl::obs::log_bucket_bounds(1.0, 100.0, 2.0));
  // Empty snapshot: every quantile is 0, including the extremes.
  const auto empty = hist.snapshot();
  EXPECT_EQ(empty.quantile(50.0), 0.0) << "empty histogram";
  EXPECT_EQ(empty.quantile(0.0), 0.0);
  EXPECT_EQ(empty.quantile(100.0), 0.0);
  // A single sample: every quantile resolves inside its bucket.
  hist.record(10.0);
  const auto one = hist.snapshot();
  EXPECT_GT(one.quantile(50.0), 0.0);
  EXPECT_LE(one.quantile(50.0), 16.0);  // Bucket (8, 16] holds the sample.
  EXPECT_GT(one.quantile(50.0), 8.0);
  // The extremes stay inside that one populated bucket too — q=0 and
  // q=100 never step outside the instrumented range or invert.
  EXPECT_LE(one.quantile(0.0), one.quantile(50.0));
  EXPECT_LE(one.quantile(50.0), one.quantile(100.0));
  EXPECT_LE(one.quantile(100.0), 16.0);
  // Overflow samples clamp to the highest finite bound instead of
  // inventing a value beyond the instrumented range.
  xfl::obs::Histogram overflow(xfl::obs::log_bucket_bounds(1.0, 100.0, 2.0));
  for (int i = 0; i < 10; ++i) overflow.record(1.0e9);
  const auto snap = overflow.snapshot();
  EXPECT_EQ(snap.quantile(50.0), snap.upper_bounds.back());
  EXPECT_EQ(snap.quantile(99.0), snap.upper_bounds.back());
  EXPECT_EQ(snap.quantile(0.0), snap.upper_bounds.back());
  EXPECT_EQ(snap.quantile(100.0), snap.upper_bounds.back());
  // A histogram with no finite bounds at all routes everything to the
  // overflow bucket; quantiles must answer 0 rather than reading
  // upper_bounds.back() of an empty vector.
  xfl::obs::Histogram unbounded((std::vector<double>()));
  for (int i = 0; i < 5; ++i) unbounded.record(123.0);
  const auto bare = unbounded.snapshot();
  EXPECT_EQ(bare.count, 5u);
  EXPECT_EQ(bare.quantile(0.0), 0.0);
  EXPECT_EQ(bare.quantile(50.0), 0.0);
  EXPECT_EQ(bare.quantile(100.0), 0.0);
}

TEST(Metrics, QuantileOfIdenticalSamplesIsThatSample) {
  // Clamping to the seen [min, max] makes n identical samples exact at
  // every p, wherever the value sits inside its bucket.
  for (const double v : {0.27, 10.0, 1234.5, 8.1e6}) {
    for (const int n : {1, 7, 1000}) {
      xfl::obs::Histogram hist(xfl::obs::log_bucket_bounds(1.0, 1.0e7, 1.5));
      for (int i = 0; i < n; ++i) hist.record(v);
      const auto snap = hist.snapshot();
      for (const double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_EQ(snap.quantile(p), v) << "v=" << v << " n=" << n << " p" << p;
    }
  }
}

TEST(Metrics, SingleSimRunSampleReportsItsValue) {
  // sim.run_us uses the coarse default bounds; one 8.1 s run falls in the
  // (3 s, 10 s] bucket, whose unclamped midpoint would read 6.5 s.
  Registry::instance().reset();
  auto& run_us = xfl::obs::histogram("sim.run_us");
  run_us.record(8.1e6);
  const auto snap = run_us.snapshot();
  EXPECT_EQ(snap.quantile(50.0), 8.1e6);
  EXPECT_EQ(snap.quantile(99.0), 8.1e6);
}

TEST(Metrics, QuantileErrorStaysWithinOneBucketGrowth) {
  // Log-uniform samples over [2, 1e6]: every estimate lies in the bucket
  // holding the nearest-rank sample, so the two differ by at most the
  // bucket growth factor; p0 and p100 are the exact extremes.
  constexpr double kGrowth = 1.08;
  const auto bounds = xfl::obs::log_bucket_bounds(1.0, 1.0e7, kGrowth);
  auto& hist = xfl::obs::histogram("test.obs.quantile_mixed", bounds);
  Registry::instance().reset();
  std::mt19937_64 gen(2017);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
    samples.push_back(2.0 * std::exp(u * std::log(5.0e5)));
    hist.record(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.min, samples.front());
  EXPECT_EQ(snap.max, samples.back());
  EXPECT_EQ(snap.quantile(0.0), samples.front());
  EXPECT_EQ(snap.quantile(100.0), samples.back());
  const double n = static_cast<double>(samples.size());
  for (const double p : {0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const double nearest = samples[rank - 1];
    const double estimate = snap.quantile(p);
    const double slack = kGrowth * (1.0 + 1e-12);
    EXPECT_LE(estimate, nearest * slack) << "p" << p;
    EXPECT_GE(estimate, nearest / slack) << "p" << p;
  }
  Registry::instance().reset();
  EXPECT_EQ(hist.snapshot().min, 0.0) << "reset empties the extremes";
  EXPECT_EQ(hist.snapshot().max, 0.0);
}

TEST(Metrics, RegistryExportsCarryQuantilesForPopulatedHistograms) {
  Registry::instance().reset();
  auto& hist = xfl::obs::histogram(
      "test.obs.quantile_hist",
      xfl::obs::quantile_latency_bounds_us());
  for (int i = 1; i <= 100; ++i) hist.record(static_cast<double>(i));
  const std::string json = Registry::instance().to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  std::ostringstream text;
  Registry::instance().write_text(text);
  EXPECT_NE(text.str().find("p50="), std::string::npos);
  EXPECT_NE(text.str().find("p99="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing.

/// Serialises the trace tests (tracing state is process-global) and
/// restores the disabled default afterwards.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xfl::obs::clear_trace();
    xfl::obs::set_tracing_enabled(true);
  }
  void TearDown() override {
    xfl::obs::set_tracing_enabled(false);
    xfl::obs::clear_trace();
  }
};

TEST_F(TraceTest, SpansNestWithDepths) {
  {
    XFL_SPAN("outer");
    {
      XFL_SPAN("inner");
      { XFL_SPAN("innermost"); }
    }
    { XFL_SPAN("inner2"); }
  }
  const auto events = xfl::obs::trace_events();
  ASSERT_EQ(events.size(), 4u);
  int depth_of_outer = -1, depth_of_inner = -1, depth_of_innermost = -1;
  for (const auto& event : events) {
    const std::string name = event.name;
    if (name == "outer") depth_of_outer = event.depth;
    if (name == "inner") depth_of_inner = event.depth;
    if (name == "innermost") depth_of_innermost = event.depth;
  }
  EXPECT_EQ(depth_of_outer, 0);
  EXPECT_EQ(depth_of_inner, 1);
  EXPECT_EQ(depth_of_innermost, 2);
  // Containment: outer's interval covers inner's.
  const auto find = [&](const std::string& name) {
    for (const auto& event : events)
      if (name == event.name) return event;
    return xfl::obs::TraceEvent{};
  };
  const auto outer = find("outer");
  const auto inner = find("inner");
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  xfl::obs::set_tracing_enabled(false);
  { XFL_SPAN("ghost"); }
  EXPECT_TRUE(xfl::obs::trace_events().empty());
}

TEST_F(TraceTest, PerThreadBuffersSurviveThreadExit) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] { XFL_SPAN("worker"); });
  for (auto& thread : threads) thread.join();
  const auto events = xfl::obs::trace_events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads));
  // Distinct threads get distinct tids.
  std::vector<std::uint32_t> tids;
  for (const auto& event : events) tids.push_back(event.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST_F(TraceTest, ChromeTraceJsonWellFormed) {
  {
    XFL_SPAN("json.outer");
    { XFL_SPAN("json.inner"); }
  }
  std::ostringstream out;
  xfl::obs::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"json.inner\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logger.

/// Captures log output through a tmpfile sink, restoring the default
/// configuration afterwards.
class LogCapture {
 public:
  explicit LogCapture(xfl::obs::LogLevel level, bool json) {
    file_ = std::tmpfile();
    xfl::obs::configure_logging({level, json, file_});
  }
  ~LogCapture() {
    xfl::obs::configure_logging({});
    std::fclose(file_);
  }
  std::string text() const {
    std::fflush(file_);
    std::string out;
    std::rewind(file_);
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof buffer, file_)) > 0)
      out.append(buffer, n);
    return out;
  }

 private:
  std::FILE* file_;
};

TEST(Log, TextFormatCarriesMessageAndFields) {
  LogCapture capture(xfl::obs::LogLevel::kDebug, /*json=*/false);
  XFL_LOG(info) << "hello obs" << xfl::obs::kv("rows", 42)
                << xfl::obs::kv("name", std::string("edge"));
  const std::string text = capture.text();
  EXPECT_NE(text.find("[info]"), std::string::npos);
  EXPECT_NE(text.find("hello obs"), std::string::npos);
  EXPECT_NE(text.find("rows=42"), std::string::npos);
  EXPECT_NE(text.find("name=edge"), std::string::npos);
}

TEST(Log, RecordsBelowRuntimeLevelAreDropped) {
  LogCapture capture(xfl::obs::LogLevel::kWarn, /*json=*/false);
  XFL_LOG(info) << "invisible";
  XFL_LOG(warn) << "visible";
  const std::string text = capture.text();
  EXPECT_EQ(text.find("invisible"), std::string::npos);
  EXPECT_NE(text.find("visible"), std::string::npos);
}

TEST(Log, JsonLinesAreWellFormed) {
  LogCapture capture(xfl::obs::LogLevel::kDebug, /*json=*/true);
  XFL_LOG(warn) << "quote\" and \\slash" << xfl::obs::kv("n", 7)
                << xfl::obs::kv("flag", true);
  const std::string text = capture.text();
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(text.find("\"n\":7"), std::string::npos);
  EXPECT_NE(text.find("\"flag\":true"), std::string::npos);
}

TEST(Log, ConcurrentWritersProduceIntactLines) {
  LogCapture capture(xfl::obs::LogLevel::kDebug, /*json=*/false);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        XFL_LOG(info) << "line" << xfl::obs::kv("thread", t)
                      << xfl::obs::kv("i", i);
    });
  for (auto& thread : threads) thread.join();
  const std::string text = capture.text();
  std::size_t lines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    // Each sink write is one whole record: every line carries the marker.
    EXPECT_NE(line.find("line"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Log, ParseLevelRoundTrip) {
  xfl::obs::LogLevel level = xfl::obs::LogLevel::kOff;
  EXPECT_TRUE(xfl::obs::parse_log_level("debug", level));
  EXPECT_EQ(level, xfl::obs::LogLevel::kDebug);
  EXPECT_TRUE(xfl::obs::parse_log_level("off", level));
  EXPECT_EQ(level, xfl::obs::LogLevel::kOff);
  EXPECT_FALSE(xfl::obs::parse_log_level("loud", level));
}

}  // namespace
