#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace perfbench {

// ----------------------------------------------------------- helpers

double Ledger::unattributed() const {
  double attributed = 0.0;
  for (const auto& row : rows) attributed += row.self;
  return total - attributed;
}

void Result::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {

/// Every counter and histogram the ledgers read. Histograms are resolved
/// with the bucket bounds the program registers them with, so probing one
/// before the program first touches it cannot change its resolution.
const std::vector<const char*> kCounters = {
    "sim.events",
    "gbt.fit.trees",
    "predictor.fit.edge_models",
    "predictor.predict.edge_hits",
    "predictor.predict.global_fallbacks",
    "threadpool.tasks",
    "serve.request.count",
    "serve.request.overloaded",
    "serve.request.timeout",
    "serve.batch.count",
    "serve.batch.rows",
    "serve.batch.steals",
    "gbt.predict.rows",
    "gbt.predict.batches",
    "gbt.explain.rows",
    "gbt.explain.batches",
    "serve.feedback.count",
    "serve.feedback.unmatched",
    "serve.drift.alarms",
    "retrain.journal.appended",
};
const std::vector<const char*> kHistograms = {
    "gbt.fit.tree_us",
    "gbt.fit.bin_us",
    "threadpool.task_wait_us",
    "contention.sweep_us",
    "gbt.predict.batch_us",
    "gbt.explain.batch_us",
};
const std::vector<const char*> kFineHistograms = {
    "serve.request.parse_us",
    "serve.request.queue_wait_us",
    "serve.request.server_us",
    "serve.batch.assemble_us",
    "serve.batch.predict_us",
    "serve.batch.respond_us",
};

}  // namespace

Tally Tally::now() {
  Tally tally;
  for (const char* name : kCounters)
    tally.values_[name] = {
        static_cast<double>(xfl::obs::counter(name).value()), 0.0};
  const auto record = [&](const char* name, std::span<const double> bounds) {
    const auto snap = xfl::obs::histogram(name, bounds).snapshot();
    tally.values_[name] = {static_cast<double>(snap.count), snap.sum};
  };
  for (const char* name : kHistograms) record(name, {});
  for (const char* name : kFineHistograms)
    record(name, xfl::obs::quantile_latency_bounds_us());
  return tally;
}

double Tally::count(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

double Tally::sum(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.second;
}

double Tally::mean(const std::string& name) const {
  return ratio(sum(name), count(name));
}

Tally Tally::operator-(const Tally& earlier) const {
  Tally delta = *this;
  for (auto& [name, value] : delta.values_) {
    value.first -= earlier.count(name);
    value.second -= earlier.sum(name);
  }
  return delta;
}

double median(std::vector<double> values) { return quantile(std::move(values), 50.0); }

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double resident_mb() {
  long size = 0, resident = 0;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(statm, "%ld %ld", &size, &resident) != 2) resident = 0;
    std::fclose(statm);
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void HostSpeed::sample() {
  constexpr std::size_t kWords = std::size_t{1} << 16;
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 20;
  static std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> words(kWords);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (auto& word : words) {
      x ^= x >> 31;
      x *= 0xBF58476D1CE4E5B9ULL;
      word = x;
    }
    return words;
  }();
  for (int n = 0; n < 5; ++n) {
    std::uint64_t x = static_cast<std::uint64_t>(n) + 1;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x = table[x & (kWords - 1)] ^ (x * 0x9E3779B97F4A7C15ULL);
      x ^= x >> 29;
    }
    const double seconds = seconds_since(start);
    sink_ ^= x;
    msteps_.push_back(static_cast<double>(kSteps) / seconds / 1e6);
  }
}

double HostSpeed::factor() const {
  return msteps_.empty() ? 1.0 : kReferenceMsteps / median(msteps_);
}

double file_mb(const std::string& path) {
  std::error_code error;
  const auto bytes = std::filesystem::file_size(path, error);
  return error ? 0.0 : static_cast<double>(bytes) / 1e6;
}

// ----------------------------------------------------------- catalogue

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"throughput_ref_per_s", "1/s"},
      {"p50_ref_us", "us"},
      {"model_mdape_pct", "pct"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.us_per_event", "us"},
      {"logs.write_csv_s", "s"},
      {"logs.read_csv_s", "s"},
      {"logs.csv_mb", "MB"},
      {"features.contention_s", "s"},
      {"features.capabilities_s", "s"},
      {"core.fit_s", "s"},
      {"core.models", "count"},
      {"core.fit_other_s", "s"},
      {"ml.fit_tree_s", "s"},
      {"ml.fit_bin_s", "s"},
      {"ml.trees", "count"},
      {"core.save_s", "s"},
      {"core.load_s", "s"},
      {"core.model_mb", "MB"},
      {"core.eval_s", "s"},
      {"core.edge_hit_share", "share"},
      {"common.pool_tasks", "count"},
      {"common.pool_wait_us", "us"},
      {"serve.parse_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.batch_rows", "rows"},
      {"serve.batches", "count"},
      {"serve.steals", "count"},
      {"serve.assemble_us", "us"},
      {"serve.predict_us", "us"},
      {"serve.respond_us", "us"},
      {"ml.rows_per_batch", "rows"},
      {"ml.kernel_us_per_row", "us"},
      {"ml.explain_rows", "count"},
      {"ml.explain_us_per_row", "us"},
      {"serve.server_us", "us"},
      {"serve.outside_us", "us"},
      {"serve.feedback_joins", "count"},
      {"serve.feedback_match_share", "share"},
      {"serve.drift_alarms", "count"},
      {"retrain.journal_appends", "count"},
      {"retrain.journal_mb", "MB"},
      {"serve.overloaded", "count"},
      {"serve.timeouts", "count"},
      {"loadgen.sent", "count"},
      {"loadgen.ok", "count"},
      {"loadgen.failed", "count"},
      {"loadgen.late_p99_us", "us"},
      {"obs.trace_overhead", "ratio"},
      {"ledger.unattributed_share", "share"},
  };
  return specs;
}

// ----------------------------------------------------------- host block

std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build); configure with "
         "-DCMAKE_BUILD_TYPE=Release";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  const std::string flags = PERFBENCH_BUILD_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos)
    return "built with a sanitizer";
  if (flags.find("-O0") != std::string::npos) return "built without optimization";
  return "";
}

std::string host_json(const std::string& kernel) {
  using xfl::serve::append_json_string;
  std::string out = "{\"cores\":";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ",\"avx2\":";
  out += __builtin_cpu_supports("avx2") ? "true" : "false";
  out += ",\"avx512f\":";
  out += __builtin_cpu_supports("avx512f") ? "true" : "false";
  out += ",\"kernel\":";
  append_json_string(out, kernel);
  out += ",\"compiler\":";
#ifdef __clang__
  append_json_string(out, "clang " __clang_version__);
#else
  append_json_string(out, "gcc " __VERSION__);
#endif
  out += ",\"build_type\":";
  append_json_string(out, PERFBENCH_BUILD_TYPE);
  out += ",\"flags\":";
  append_json_string(out, PERFBENCH_BUILD_FLAGS);
  out += "}";
  return out;
}

// ----------------------------------------------------------- output

std::vector<std::string> missing_metrics(const Result& result, bool traced) {
  std::vector<std::string> missing;
  const auto& specs = traced ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = traced ? result.layers : result.e2e;
  for (const auto& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() ? !traced
                           : !std::isfinite(it->second) ||
                                 (!traced && it->second == 0.0))
      missing.emplace_back(spec.name);
  }
  return missing;
}

void print_report(std::FILE* out, const Options& options,
                  const Result& result) {
  std::fprintf(out, "host %s\n", host_json(result.kernel).c_str());
  std::fprintf(out, "workload %s seed=%llu seconds=%g trace=%d\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0);
  for (const auto& [name, value] : result.named)
    std::fprintf(out, "  %-28s %.6g\n", name.c_str(), value);
  std::fprintf(out, "  %-28s %llu of %llu (share %.6g)\n", "failed",
               static_cast<unsigned long long>(result.failed),
               static_cast<unsigned long long>(result.attempted),
               ratio(static_cast<double>(result.failed),
                     static_cast<double>(result.attempted)));
  for (const auto& line : result.notes) std::fprintf(out, "%s\n", line.c_str());
  for (const auto& ledger : result.ledgers) {
    std::fprintf(out, "ledger %s: base %s = %.6g %s\n", options.workload.c_str(),
                 ledger.base.c_str(), ledger.total, ledger.unit.c_str());
    const auto row = [&](const std::string& layer, double self) {
      std::fprintf(out, "  %-26s %12.6g %-3s %7.2f%% of %s\n", layer.c_str(),
                   self, ledger.unit.c_str(),
                   100.0 * ratio(self, ledger.total), ledger.base.c_str());
    };
    for (const auto& r : ledger.rows) row(r.layer, r.self);
    row("unattributed", ledger.unattributed());
  }
  for (const auto& error : result.errors)
    std::fprintf(out, "check failed: %s\n", error.c_str());
}

void print_result_line(std::FILE* out, const Result& result, bool traced) {
  const auto& specs = traced ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = traced ? result.layers : result.e2e;
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    const auto it = values.find(spec.name);
    const double value =
        it != values.end() && std::isfinite(it->second) ? it->second : 0.0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (!first) line += ", ";
    first = false;
    line += '"';
    line += spec.name;
    line += "\": {\"value\": ";
    line += number;
    line += ", \"unit\": \"";
    line += spec.unit;
    line += "\"}";
  }
  line += "}}";
  std::fprintf(out, "%s\n", line.c_str());
}

}  // namespace perfbench
