// Shared types of the benchmark program: run options, the per-run result
// every workload fills, and the small timing/counter helpers the
// workloads use to build their per-layer ledgers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and phases: proves every metric is produced, not how fast.
  bool self_check = false;
  std::string work_dir;   ///< Per-run scratch, removed at exit.
  std::string trace_dir;  ///< Chrome traces of traced pipeline runs.
};

/// One ledger row: a layer's self time, in the ledger's unit.
struct LedgerRow {
  std::string layer;
  double self = 0.0;
};

/// Per-layer self times of one end-to-end total. The unattributed row is
/// total minus the listed rows, so the printed rows always sum to total.
struct Ledger {
  std::string base;  ///< The end-to-end quantity the rows decompose.
  std::string unit;
  double total = 0.0;
  std::vector<LedgerRow> rows;

  double unattributed() const;
};

/// What one workload run produced.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Oracle mismatches, described (only the first few are kept).
  std::vector<std::string> errors;
  std::string kernel;  ///< predictor.serving_kernel() of the measured model.
  /// Named end-to-end figures of the workload, printed in the report.
  std::vector<std::pair<std::string, double>> named;
  /// The declared end-to-end metrics (untraced runs).
  std::map<std::string, double> e2e;
  /// The declared per-layer metrics (traced runs); absent layers are 0.
  std::map<std::string, double> layers;
  std::vector<Ledger> ledgers;
  /// Extra report lines (the open-loop ladder table).
  std::vector<std::string> notes;

  /// Count one failed check and keep its description.
  void fail(const std::string& what);
};

/// Exact totals of the program's own counters and histograms at one
/// instant; subtracting two gives what happened in between.
class Tally {
 public:
  static Tally now();
  /// Counter value, or a histogram's sample count.
  double count(const std::string& name) const;
  /// A histogram's sum of samples (0 for counters).
  double sum(const std::string& name) const;
  /// sum / count of a histogram, 0 when it saw no samples.
  double mean(const std::string& name) const;
  Tally operator-(const Tally& earlier) const;

 private:
  std::map<std::string, std::pair<double, double>> values_;
};

double median(std::vector<double> values);
/// Linearly interpolated percentile, p in [0, 100].
double quantile(std::vector<double> values, double p);
/// Peak resident set of this process, MB.
double peak_rss_mb();
/// Resident set of this process now, MB.
double resident_mb();

/// How fast the shared host runs during a run: samples of a fixed,
/// benchmark-owned loop (dependent reads over a 512 KiB table and integer
/// mixing, about 10 ms), taken between measured chunks. It calls nothing
/// in the library, so a change to the program cannot move it; only the
/// host can.
class HostSpeed {
 public:
  /// Speed of the loop, Msteps/s, on the host the reference figures mean.
  static constexpr double kReferenceMsteps = 100.0;
  /// Time the loop five times.
  void sample();
  /// Reference speed / this run's median speed: multiply a rate by it (or
  /// divide a time) to express it at the reference host speed.
  double factor() const;
  double median_msteps() const { return median(msteps_); }

 private:
  std::vector<double> msteps_;
  std::uint64_t sink_ = 0;
};

double file_mb(const std::string& path);
/// a / b, or 0 when b is 0 (a layer that did no work in this workload).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

Result run_pipeline(const Options& options);
Result run_serve_predict(const Options& options);
Result run_serve_mixed(const Options& options);

}  // namespace perfbench
