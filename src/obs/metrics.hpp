// Metrics registry (pillar 2 of the observability layer): named counters,
// gauges, and fixed-bucket histograms.
//
//   static auto& rows = xfl::obs::counter("gbt.predict.rows");
//   rows.add(batch.rows());
//
// Hot-path cost model: every metric has kMetricShards cache-line-padded
// cells. A writer thread leases one of the first kMetricShards - 1 cells
// for its lifetime; as the cell's only writer it adds with a relaxed load
// and store — no locked instruction, nothing ordered. Threads that find
// every lease taken share the last cell and add with a relaxed fetch_add.
// Scrapes (value()/snapshot()) sum the shards; because each increment
// lands in exactly one shard, totals are exact, not sampled. A global kill
// switch (set_metrics_enabled) turns every write into one relaxed load,
// which is what the overhead guard benchmarks against.
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
/// A writer thread's shard, held for the thread's lifetime. `owned` means
/// no other live thread writes shard `index`; otherwise `index` is the
/// last, shared shard. A thread's stores to its cells happen before the
/// lease's release, and the next owner acquires it, so ownership passes
/// on without losing an increment.
struct ShardLease {
  ShardLease() noexcept;
  ~ShardLease();
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;
  std::size_t index;
  bool owned;
};

/// This thread's lease. Inline, so a metric write reads a thread-local
/// instead of making a call.
inline const ShardLease& shard_lease() noexcept {
  thread_local ShardLease lease;
  return lease;
}

/// cell += n: a plain load and store when this thread owns the cell's
/// shard (it is the only writer), a fetch_add on the shared shard.
template <typename T>
inline void shard_add(std::atomic<T>& cell, T n, bool owned) noexcept {
  if (owned)
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  else
    cell.fetch_add(n, std::memory_order_relaxed);
}

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
    const detail::ShardLease& lease = detail::shard_lease();
    detail::shard_add(cells_[lease.index].value, n, lease.owned);
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
/// extremes and a store (a CAS on the shared shard) only when it is a new
/// minimum or maximum.
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

/// Fine log-spaced latency bounds (10ns..10s, ~4% resolution) for
/// histograms whose quantiles are exported — the serve-path stage timers.
/// They start well below 1us because some stages (request parse) average
/// a fraction of a microsecond.
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
  /// paired-overhead measurements, while no thread writes: an owner's
  /// load-and-store that straddles the reset puts its old value back.
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
