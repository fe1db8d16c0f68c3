#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/number.hpp"

namespace xfl::obs {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

std::atomic<bool>& metrics_switch() noexcept {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace detail

void set_metrics_enabled(bool enabled) noexcept {
  detail::metrics_switch().store(enabled, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& cell : cells_)
    total += cell.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

void Gauge::reset() noexcept {
  value_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  upper_bounds_.erase(
      std::unique(upper_bounds_.begin(), upper_bounds_.end()),
      upper_bounds_.end());
  for (auto& shard : shards_)
    shard.counts =
        std::vector<std::atomic<std::uint64_t>>(upper_bounds_.size() + 1);
}

void Histogram::record(double v) noexcept {
  if (!metrics_enabled()) return;
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v) -
      upper_bounds_.begin());
  Shard& shard = shards_[detail::shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
  // Extremes via CAS, only when v is new; losing the race only means
  // another writer installed a value at least as extreme.
  double seen = shard.min.load(std::memory_order_relaxed);
  while (v < seen && !shard.min.compare_exchange_weak(
                         seen, v, std::memory_order_relaxed)) {
  }
  seen = shard.max.load(std::memory_order_relaxed);
  while (v > seen && !shard.max.compare_exchange_weak(
                         seen, v, std::memory_order_relaxed)) {
  }
}

double Histogram::Snapshot::quantile(double p) const {
  if (count == 0) return 0.0;
  p = std::min(std::max(p, 0.0), 100.0);
  // Target rank, 1-based: the sample such that `p`% of the mass is at or
  // below it (matches xfl::percentile's linear interpolation closely
  // enough for log-spaced buckets).
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t below = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // Overflow bucket: clamp to the highest bound (0 when the histogram
    // was registered with no bounds at all — every sample overflows).
    if (b >= upper_bounds.size())
      return upper_bounds.empty() ? 0.0 : upper_bounds.back();
    const double lo = b == 0 ? 0.0 : upper_bounds[b - 1];
    const double hi = upper_bounds[b];
    const double fraction =
        (rank - static_cast<double>(below)) / static_cast<double>(counts[b]);
    const double estimate =
        lo + (hi - lo) * std::min(std::max(fraction, 0.0), 1.0);
    // No sample lies outside [min, max]. The guard skips the clamp when a
    // snapshot raced a first record and saw its count before its extremes.
    return min <= max ? std::min(std::max(estimate, min), max) : estimate;
  }
  return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.min = kInf;
  snap.max = -kInf;
  snap.upper_bounds = upper_bounds_;
  snap.counts.assign(upper_bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < shard.counts.size(); ++b)
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.min = std::min(snap.min, shard.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
  }
  for (const auto c : snap.counts) snap.count += c;
  if (snap.count == 0) snap.min = snap.max = 0.0;
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.min.store(kInf, std::memory_order_relaxed);
    shard.max.store(-kInf, std::memory_order_relaxed);
  }
}

std::span<const double> default_latency_bounds_us() {
  static const std::vector<double> bounds = {
      10.0,    30.0,    100.0,    300.0,    1.0e3,  3.0e3, 1.0e4,
      3.0e4,   1.0e5,   3.0e5,    1.0e6,    3.0e6,  1.0e7};
  return bounds;
}

std::vector<double> log_bucket_bounds(double lo, double hi, double growth) {
  std::vector<double> bounds;
  if (!(lo > 0.0) || !(hi > lo) || !(growth > 1.0)) return bounds;
  for (double bound = lo; bound < hi; bound *= growth)
    bounds.push_back(bound);
  bounds.push_back(hi);
  return bounds;
}

std::span<const double> quantile_latency_bounds_us() {
  static const std::vector<double> bounds =
      log_bucket_bounds(1.0, 1.0e7, 1.08);
  return bounds;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::span<const double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    std::vector<double> upper(bounds.begin(), bounds.end());
    if (upper.empty()) {
      const auto defaults = default_latency_bounds_us();
      upper.assign(defaults.begin(), defaults.end());
    }
    slot = std::make_unique<Histogram>(std::move(upper));
  }
  return *slot;
}

std::string Registry::to_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, metric] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_number(out, metric->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, metric] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":{\"value\":";
    append_number(out, metric->value());
    out += ",\"max\":";
    append_number(out, metric->max());
    out += '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, metric] : histograms_) {
    if (!first) out += ',';
    first = false;
    const auto snap = metric->snapshot();
    out += '"';
    out += name;
    out += "\":{\"count\":";
    append_number(out, snap.count);
    out += ",\"sum\":";
    append_number(out, snap.sum);
    out += ",\"p50\":";
    append_number(out, snap.quantile(50.0));
    out += ",\"p95\":";
    append_number(out, snap.quantile(95.0));
    out += ",\"p99\":";
    append_number(out, snap.quantile(99.0));
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      if (b != 0) out += ',';
      out += "{\"le\":";
      if (b < snap.upper_bounds.size()) {
        append_number(out, snap.upper_bounds[b]);
      } else {
        out += "\"+inf\"";
      }
      out += ",\"count\":";
      append_number(out, snap.counts[b]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void Registry::write_json(std::ostream& out) const { out << to_json(); }

void Registry::write_text(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  for (const auto& [name, metric] : counters_)
    out << "counter   " << name << " = " << metric->value() << '\n';
  for (const auto& [name, metric] : gauges_)
    out << "gauge     " << name << " = " << metric->value()
        << " (max " << metric->max() << ")\n";
  for (const auto& [name, metric] : histograms_) {
    const auto snap = metric->snapshot();
    out << "histogram " << name << " count=" << snap.count
        << " sum=" << snap.sum;
    if (snap.count > 0)
      out << " mean=" << snap.sum / static_cast<double>(snap.count)
          << " p50=" << snap.quantile(50.0)
          << " p95=" << snap.quantile(95.0)
          << " p99=" << snap.quantile(99.0);
    out << '\n';
  }
}

std::string Registry::counters_compact() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const auto& [name, metric] : counters_) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    append_number(out, metric->value());
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, metric] : counters_) metric->reset();
  for (auto& [name, metric] : gauges_) metric->reset();
  for (auto& [name, metric] : histograms_) metric->reset();
}

Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}

Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}

Histogram& histogram(const std::string& name, std::span<const double> bounds) {
  return Registry::instance().histogram(name, bounds);
}

}  // namespace xfl::obs
