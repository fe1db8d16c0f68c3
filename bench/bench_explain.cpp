// Explain-throughput benchmark (PR 10): measures the Saabas path-
// attribution kernel on the standard 2000x15 / 200-tree / depth-4
// workload that BENCH_predict.json uses, so the explain numbers are
// directly comparable with the predict numbers recorded there.
//
//   * predict_batch serial      — the serving baseline;
//   * explain_nodewalk per row  — the kept reference implementation;
//   * explain_batch serial      — the flat explain kernel.
//
// Every row is medians of kReps repetitions. Prints a JSON document to
// stdout; the repository's BENCH_explain.json records a run of this
// binary on the reference host.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"

namespace {

using namespace xfl;

constexpr std::size_t kRows = 2000;
constexpr std::size_t kCols = 15;
constexpr int kReps = 9;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median ms over kReps calls of `body` (one warm-up call first).
template <typename Body>
double median_ms(Body&& body) {
  body();
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const double start = now_ms();
    body();
    samples.push_back(now_ms() - start);
  }
  return median(std::move(samples));
}

}  // namespace

int main() {
  // The PR 2 benchmark workload: 2000x15, y = x0^2 + 2*x5 + noise.
  ml::Matrix x(kRows, kCols);
  std::vector<double> y(kRows);
  Rng rng(3);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 0) * x.at(i, 0) + 2.0 * x.at(i, 5) + rng.normal(0.0, 0.1);
  }
  ml::GradientBoostedTrees model;  // Default config: 200 trees, depth 4.
  model.fit(x, y);

  std::vector<double> pred(kRows), bias(kRows), contrib(kRows * kCols);

  const double predict_ms =
      median_ms([&] { model.predict_batch(x, pred); });

  const double nodewalk_ms = median_ms([&] {
    for (std::size_t r = 0; r < kRows; ++r)
      pred[r] = model.explain_nodewalk(
          x.row(r), std::span(contrib.data() + r * kCols, kCols), bias[r]);
  });

  const double serial_ms =
      median_ms([&] { model.explain_batch(x, pred, bias, contrib); });

  const auto rows_per_s = [](double ms) {
    return static_cast<double>(kRows) / (ms / 1000.0);
  };
  std::printf("{\n");
  std::printf("  \"workload\": \"%zu rows x %zu features, default "
              "GbtConfig{trees=200, max_depth=4}\",\n",
              kRows, kCols);
  std::printf("  \"reps\": %d,\n", kReps);
  std::printf("  \"threads\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"predict_kernel\": \"%s\",\n",
              ml::kernel_name(model.flat().effective_kernel()));
  std::printf("  \"predict_batch_serial\": "
              "{\"median_ms\": %.3f, \"rows_per_s\": %.0f},\n",
              predict_ms, rows_per_s(predict_ms));
  std::printf("  \"explain_nodewalk_per_row\": "
              "{\"median_ms\": %.3f, \"rows_per_s\": %.0f},\n",
              nodewalk_ms, rows_per_s(nodewalk_ms));
  std::printf("  \"explain_batch_serial\": "
              "{\"median_ms\": %.3f, \"rows_per_s\": %.0f},\n",
              serial_ms, rows_per_s(serial_ms));
  std::printf("  \"explain_vs_predict_serial\": %.2f,\n",
              serial_ms / predict_ms);
  std::printf("  \"flat_vs_nodewalk_serial\": %.2f\n",
              nodewalk_ms / serial_ms);
  std::printf("}\n");
  return 0;
}
