// Metrics registry (pillar 2 of the observability layer): named counters,
// gauges, and fixed-bucket histograms.
//
//   static auto& rows = xfl::obs::counter("gbt.predict.rows");
//   rows.add(batch.rows());
//
// Hot-path cost model: every writer thread owns one of kMetricShards
// cache-line-padded cells per metric, so an increment is a single relaxed
// fetch_add on an uncontended line — nothing on the write path takes a
// lock or orders memory. Scrapes (value()/snapshot()) sum the shards;
// because each increment lands in exactly one shard, totals are exact, not
// sampled. A global kill switch (set_metrics_enabled) turns every write
// into one relaxed load, which is what the overhead guard benchmarks
// against.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace xfl::obs {

/// Writer shards per metric. Threads are assigned round-robin, so exact
/// totals survive any thread count; 16 lines bound the per-metric memory
/// while keeping collisions rare for the pools this repo runs (<= cores).
inline constexpr std::size_t kMetricShards = 16;

namespace detail {
/// This thread's shard slot (assigned once, round-robin).
std::size_t shard_index() noexcept;
std::atomic<bool>& metrics_switch() noexcept;
}  // namespace detail

inline bool metrics_enabled() noexcept {
  return detail::metrics_switch().load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    cells_[detail::shard_index()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept;

 private:
  friend class Registry;
  void reset() noexcept;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kMetricShards> cells_{};
};

/// Last-write-wins instantaneous value (queue depths, sizes).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    // Running maximum via CAS; losing the race only means another thread
    // installed a value at least as large.
    double seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  void reset() noexcept;
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i], plus an
/// implicit overflow bucket. Counts, the running sum and the extremes are
/// sharded like Counter cells; a sample costs two relaxed loads for the
/// extremes and a CAS only when it is a new minimum or maximum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double v) noexcept;

  struct Snapshot {
    std::vector<double> upper_bounds;   ///< Ascending; +inf is implicit.
    std::vector<std::uint64_t> counts;  ///< upper_bounds.size() + 1 entries.
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< Smallest sample seen (0 when empty).
    double max = 0.0;  ///< Largest sample seen (0 when empty).

    /// Streaming quantile extraction, p in [0, 100]: walk the cumulative
    /// bucket counts to the target rank, interpolate linearly inside the
    /// bucket (lower edge 0 for the first bucket), and clamp the result to
    /// [min, max] — n identical samples return exactly that sample, and
    /// otherwise the estimate stays inside the bucket holding the
    /// nearest-rank sample (one bucket's growth factor). Samples landing
    /// in the overflow bucket report the highest bound — register the
    /// histogram with log_bucket_bounds() wide enough that the overflow
    /// bucket stays empty. Returns 0 when the histogram is empty.
    double quantile(double p) const;
  };
  Snapshot snapshot() const;

 private:
  friend class Registry;
  void reset() noexcept;
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  std::vector<double> upper_bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Default latency bucket bounds in microseconds (roughly log-spaced from
/// 10us to 10s).
std::span<const double> default_latency_bounds_us();

/// Geometric bucket bounds: lo, lo*growth, lo*growth^2, ... through hi
/// (the last bound is >= hi). With growth 1.08 the relative quantile
/// error from within-bucket interpolation is under ~4%.
std::vector<double> log_bucket_bounds(double lo, double hi, double growth);

/// Fine log-spaced latency bounds (1us..10s, ~4% resolution) for
/// histograms whose quantiles are exported — the serve-path stage timers.
std::span<const double> quantile_latency_bounds_us();

/// Process-wide name -> metric registry. Lookups lock; the returned
/// references are stable for the life of the process, so hot paths resolve
/// a metric once (function-local static) and then write lock-free.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bounds; later calls ignore `bounds`.
  Histogram& histogram(const std::string& name,
                       std::span<const double> bounds);

  /// One JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

  /// Human-readable dump, one metric per line.
  void write_text(std::ostream& out) const;

  /// "name=value name=value ..." for counters only (bench context lines).
  std::string counters_compact() const;

  /// Zero every metric (values, not registrations). For tests and
  /// paired-overhead measurements.
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Convenience accessors mirroring Registry::instance() methods.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name,
                     std::span<const double> bounds = {});

}  // namespace xfl::obs
