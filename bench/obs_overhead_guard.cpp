// Observability overhead guard: asserts that the instrumented train,
// batch-predict and one-row predict hot paths stay within tolerance of
// the uninstrumented paths, and that resident-but-unused explain
// support costs the predict path under 1% — measured against a
// bit-identical ensemble built without the attribution table. "On" is the
// default production posture (metrics enabled, logging at info, tracing
// off); "off" flips the metrics kill switch so every
// counter/histogram write degenerates to one relaxed load. The two
// configurations alternate back-to-back in pairs and the verdict is the
// median pairwise ratio, which cancels host drift on a shared 1-core box.
//
// Exits nonzero when the ratio exceeds the budget, so CI (or a human
// running build/bench/obs_overhead_guard, or ctest — the guard is a
// registered test) gets a hard failure, and prints the per-pair samples
// recorded in BENCH_gbt.json / BENCH_predict.json.
//
// A hot path over budget is re-measured up to kAttempts times and passes
// if ANY attempt meets the budget: on a shared single-core box scheduler
// noise only ever inflates a ratio, so a genuine regression fails every
// attempt while a noisy spike fails at most one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace xfl;

/// Median overhead budget: obs-on may cost at most 2% over obs-off.
constexpr double kMaxRatio = 1.02;
/// Explain support must cost the predict path under 1% when unused.
constexpr double kMaxExplainRatio = 1.01;
constexpr int kPairs = 7;
/// Over-budget measurements are retried this many times in total.
constexpr int kAttempts = 3;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Workload {
  ml::Matrix x{0, 0};
  std::vector<double> y;
};

Workload make_workload(std::size_t rows) {
  Workload w;
  w.x = ml::Matrix(rows, 15);
  w.y.resize(rows);
  Rng rng(3);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < 15; ++c) w.x.at(i, c) = rng.normal();
    w.y[i] = w.x.at(i, 0) * w.x.at(i, 0) + 2.0 * w.x.at(i, 5) +
             rng.normal(0.0, 0.1);
  }
  return w;
}

/// ms per fit of the PR 1 benchmark workload (2000x15, 100 trees, serial).
double time_fit_ms(const Workload& w, int iterations) {
  ml::GbtConfig config;
  config.trees = 100;
  const double start = now_ms();
  for (int i = 0; i < iterations; ++i) {
    ml::GradientBoostedTrees model(config);
    model.fit(w.x, w.y);
  }
  return (now_ms() - start) / iterations;
}

/// ms per serial predict_batch of the PR 2 benchmark workload (2000 rows,
/// default 200-tree depth-4 model).
double time_predict_ms(const ml::GradientBoostedTrees& model,
                       const Workload& w, std::vector<double>& out,
                       int iterations) {
  const double start = now_ms();
  for (int i = 0; i < iterations; ++i) model.predict_batch(w.x, out);
  return (now_ms() - start) / iterations;
}

/// ms per `calls` one-row predict_batch calls — the per-edge serving
/// shape, where the per-call metric writes weigh most against a few-row
/// walk of a couple of microseconds.
double time_one_row_ms(const ml::GradientBoostedTrees& model,
                       const ml::Matrix& row, int calls) {
  double out = 0.0;
  const double start = now_ms();
  for (int i = 0; i < calls; ++i) model.predict_batch(row, {&out, 1});
  return now_ms() - start;
}

/// A random flat ensemble (200 complete depth-4 trees over the workload's
/// 15 features). Called twice with a fixed seed it produces structurally
/// identical ensembles; `attribution` is the explain-support A/B lever.
ml::FlatEnsemble make_flat(bool attribution) {
  ml::FlatEnsemble::Builder builder(0.5, 0.1);
  builder.set_attribution(attribution);
  Rng rng(11);
  for (int t = 0; t < 200; ++t) {
    builder.begin_tree();
    // Complete depth-4 tree in level order: internals 0..14, leaves 15..30.
    for (int i = 0; i < 15; ++i)
      builder.add_node(static_cast<std::int32_t>(rng.uniform_int(0, 14)),
                       rng.normal(), 2 * i + 1, 2 * i + 2);
    for (int i = 0; i < 16; ++i)
      builder.add_node(-1, rng.normal(0.0, 0.1), 0, 0);
  }
  return std::move(builder).build();
}

double time_flat_predict_ms(const ml::FlatEnsemble& flat, const Workload& w,
                            std::vector<double>& out, int iterations) {
  const double start = now_ms();
  for (int i = 0; i < iterations; ++i) flat.predict_batch(w.x, out);
  return (now_ms() - start) / iterations;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct PairedResult {
  std::vector<double> on_ms;
  std::vector<double> off_ms;
  double median_ratio = 0.0;
};

/// One "on" vs "off" alternation per pair; the verdict is the median
/// pairwise ratio. The two thunks define what on/off mean (metrics
/// toggled, attribution table present/absent, ...).
template <typename TimeOn, typename TimeOff>
PairedResult run_pairs_ab(TimeOn&& time_on, TimeOff&& time_off) {
  PairedResult result;
  std::vector<double> ratios;
  for (int p = 0; p < kPairs; ++p) {
    // Alternate which side runs first so monotonic host drift (thermal,
    // neighbours on a shared box) cancels across pairs instead of biasing
    // every ratio the same way.
    double on, off;
    if (p % 2 == 0) {
      on = time_on();
      off = time_off();
    } else {
      off = time_off();
      on = time_on();
    }
    result.on_ms.push_back(on);
    result.off_ms.push_back(off);
    ratios.push_back(on / off);
  }
  result.median_ratio = median(ratios);
  return result;
}

template <typename TimeOnce>
PairedResult run_pairs(TimeOnce&& time_once) {
  return run_pairs_ab(
      [&] {
        obs::set_metrics_enabled(true);
        return time_once();
      },
      [&] {
        obs::set_metrics_enabled(false);
        const double off = time_once();
        obs::set_metrics_enabled(true);
        return off;
      });
}

void print_result(const char* label, const PairedResult& result,
                  double budget) {
  std::printf("%s\n  on_ms  =", label);
  for (const double v : result.on_ms) std::printf(" %.3f", v);
  std::printf("\n  off_ms =");
  for (const double v : result.off_ms) std::printf(" %.3f", v);
  std::printf("\n  median on/off ratio = %.4f (budget %.2f)\n",
              result.median_ratio, budget);
}

/// Measure until one attempt meets budget (prints every attempt).
template <typename TimeOn, typename TimeOff>
bool guard_ab(const char* label, double budget, TimeOn&& time_on,
              TimeOff&& time_off) {
  PairedResult result;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    result = run_pairs_ab(time_on, time_off);
    print_result(label, result, budget);
    if (result.median_ratio <= budget) return true;
    if (attempt < kAttempts)
      std::printf("  over budget — retrying (attempt %d/%d)\n", attempt + 1,
                  kAttempts);
  }
  std::printf("FAIL: %s overhead %.2f%% exceeds budget in %d attempts\n",
              label, 100.0 * (result.median_ratio - 1.0), kAttempts);
  return false;
}

template <typename TimeOnce>
bool guard(const char* label, TimeOnce&& time_once) {
  PairedResult result;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    result = run_pairs(time_once);
    print_result(label, result, kMaxRatio);
    if (result.median_ratio <= kMaxRatio) return true;
    if (attempt < kAttempts)
      std::printf("  over budget — retrying (attempt %d/%d)\n", attempt + 1,
                  kAttempts);
  }
  std::printf("FAIL: %s overhead %.2f%% exceeds budget in %d attempts\n",
              label, 100.0 * (result.median_ratio - 1.0), kAttempts);
  return false;
}

}  // namespace

int main() {
  // Default production posture; hot-path logs are debug-level, so info
  // keeps the logger resident but silent, matching real runs.
  obs::configure_logging({obs::LogLevel::kInfo, false, nullptr});
  obs::set_tracing_enabled(false);

  std::printf("observability overhead guard (paired on/off, %d pairs)\n",
              kPairs);

  const Workload train = make_workload(2000);
  // Warm-up outside the measurement (binning buffers, metric shards).
  time_fit_ms(train, 1);
  const bool fit_ok = guard("gbt fit 2000x15 trees=100 serial",
                            [&] { return time_fit_ms(train, 3); });

  ml::GradientBoostedTrees model;  // Default config: 200 trees, depth 4.
  model.fit(train.x, train.y);
  // Dispatch is host-dependent; name the measured kernel so recorded
  // numbers (BENCH_predict.json) stay comparable across hosts.
  std::printf("predict kernel = %s\n",
              ml::kernel_name(model.flat().effective_kernel()));
  std::vector<double> out(train.x.rows());
  time_predict_ms(model, train, out, 2);
  const bool predict_ok =
      guard("gbt predict_batch 2000 rows serial",
            [&] { return time_predict_ms(model, train, out, 10); });

  ml::Matrix one_row(1, train.x.cols());
  std::copy(train.x.row(0).begin(), train.x.row(0).end(),
            one_row.row(0).begin());
  time_one_row_ms(model, one_row, 500);
  const bool one_row_ok =
      guard("gbt predict_batch 1 row x 10000 calls",
            [&] { return time_one_row_ms(model, one_row, 10000); });

  // Explain-support guard: two bit-identical random ensembles, one
  // carrying the Saabas attribution table and one built with
  // set_attribution(false). predict_batch never reads the table, so the
  // resident-but-unused explain machinery must cost the predict hot path
  // under 1% (its only possible mechanism is cache/memory footprint).
  const ml::FlatEnsemble with_attr = make_flat(true);
  const ml::FlatEnsemble without_attr = make_flat(false);
  std::vector<double> flat_a(train.x.rows()), flat_b(train.x.rows());
  with_attr.predict_batch(train.x, flat_a);
  without_attr.predict_batch(train.x, flat_b);
  if (flat_a != flat_b) {
    std::printf("FAIL: attribution-free ensemble predicts different bits\n");
    return 1;
  }
  // A 1% budget needs quieter samples than the 2% guards: 50 iterations
  // per sample instead of 10 averages scheduler noise down far enough for
  // the median pairwise ratio to resolve sub-percent differences.
  const bool explain_ok = guard_ab(
      "predict_batch, explain machinery resident-but-unused vs absent",
      kMaxExplainRatio,
      [&] { return time_flat_predict_ms(with_attr, train, flat_a, 50); },
      [&] { return time_flat_predict_ms(without_attr, train, flat_b, 50); });

  const bool ok = fit_ok && predict_ok && one_row_ok && explain_ok;
  if (ok)
    std::printf("PASS: observability stays within %.0f%% on fit, batch and"
                " one-row predict, and unused explain support within %.0f%%\n",
                100.0 * (kMaxRatio - 1.0), 100.0 * (kMaxExplainRatio - 1.0));
  return ok ? 0 : 1;
}
