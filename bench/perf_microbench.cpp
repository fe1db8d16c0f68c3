// google-benchmark microbenchmarks for the performance-critical substrate:
// the max-min flow solver (hot path of every simulation event), the
// contention sweep (feature engineering over the full log), gradient
// boosting training, and MIC estimation.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "features/contention.hpp"
#include "logs/log_store.hpp"
#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"
#include "ml/mic.hpp"
#include "sim/resources.hpp"

namespace {

using namespace xfl;

void BM_MaxMinAllocate(benchmark::State& state) {
  const auto flow_count = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  sim::ResourcePool pool;
  for (int r = 0; r < 64; ++r)
    pool.add("r" + std::to_string(r), rng.uniform(1e8, 2e9));
  std::vector<sim::FlowSpec> flows(flow_count);
  for (auto& flow : flows) {
    for (int u = 0; u < 6; ++u)
      flow.usage.push_back({static_cast<sim::ResourceId>(rng.uniform_int(0, 63)),
                            rng.uniform(1.0, 16.0), 1.0});
    flow.cap_Bps = rng.uniform(1e7, 2e9);
  }
  for (auto _ : state) {
    auto rates = sim::maxmin_allocate(pool, flows);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flow_count));
}
BENCHMARK(BM_MaxMinAllocate)->Arg(16)->Arg(64)->Arg(256);

// The flow set a production simulation event presents: ~60 flows, of which
// 50 are background processes alone on their own disk/NIC resource and 10
// are transfers whose 7 uses (disk, CPU, NIC, WAN, NIC, CPU, disk) meet at
// a few shared endpoints. BM_MaxMinAllocate's random uses make one dense
// component instead.
void BM_MaxMinAllocateProduction(benchmark::State& state) {
  constexpr int kEndpoints = 40;
  constexpr int kBackgrounds = 50;
  constexpr int kTransfers = 10;
  Rng rng(2);
  sim::ResourcePool pool;
  // Per endpoint: disk_read, disk_write, nic_in, nic_out, cpu.
  for (int r = 0; r < kEndpoints * 5; ++r)
    pool.add("e" + std::to_string(r), rng.uniform(1e8, 2e9));
  std::vector<sim::FlowSpec> flows;
  for (int t = 0; t < kTransfers; ++t) {
    // Transfers run among the first 6 endpoints; backgrounds sit on the
    // other 34, one resource each.
    const int src = static_cast<int>(rng.uniform_int(0, 5));
    const int dst = (src + 1 + static_cast<int>(rng.uniform_int(0, 4))) % 6;
    const double procs = rng.uniform_int(1, 8);
    const double streams = procs * 4.0;
    const auto wan = pool.add("wan" + std::to_string(t), rng.uniform(1e9, 1e10));
    auto id = [](int endpoint, int component) {
      return static_cast<sim::ResourceId>(endpoint * 5 + component);
    };
    sim::FlowSpec flow;
    flow.usage = {{id(src, 0), procs, 1.0},   {id(src, 4), procs, 1.2},
                  {id(src, 3), streams, 1.0}, {wan, streams, 1.0},
                  {id(dst, 2), streams, 1.0}, {id(dst, 4), procs, 1.2},
                  {id(dst, 1), procs, 1.0}};
    flow.cap_Bps = rng.uniform(1e8, 2e9);
    flows.push_back(std::move(flow));
  }
  for (int b = 0; b < kBackgrounds; ++b) {
    sim::FlowSpec flow;
    flow.usage = {{static_cast<sim::ResourceId>(30 + b * 3), 256.0, 1.0}};
    flow.cap_Bps = rng.uniform(1e7, 1e9);
    flows.push_back(std::move(flow));
  }
  for (auto _ : state) {
    auto rates = sim::maxmin_allocate(pool, flows);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_MaxMinAllocateProduction);

logs::LogStore synthetic_log(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  logs::LogStore log;
  for (std::size_t i = 0; i < n; ++i) {
    logs::TransferRecord r;
    r.id = i + 1;
    r.src = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    r.dst = static_cast<endpoint::EndpointId>(rng.uniform_int(0, 19));
    if (r.dst == r.src) r.dst = (r.src + 1) % 20;
    r.start_s = rng.uniform(0.0, 1.0e6);
    r.end_s = r.start_s + rng.uniform(10.0, 2000.0);
    r.bytes = rng.lognormal(23.0, 2.0);
    r.files = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 500));
    r.dirs = 1;
    r.concurrency = 4;
    r.parallelism = 4;
    log.append(r);
  }
  return log;
}

// Arg 0: record count; arg 1: sweep threads (0 = hardware concurrency,
// 1 = serial). Results are bit-identical across thread counts.
void BM_ContentionSweep(benchmark::State& state) {
  const auto log = synthetic_log(static_cast<std::size_t>(state.range(0)), 2);
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto features = features::compute_contention(log, threads);
    benchmark::DoNotOptimize(features);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContentionSweep)
    ->Args({1000, 1})
    ->Args({5000, 1})
    ->Args({20000, 1})
    ->Args({20000, 0});

// Arg 0: training rows; arg 1: GbtConfig::threads (0 = hardware
// concurrency, 1 = serial). The fitted model is bit-identical across
// thread counts, so the configurations are directly comparable.
void BM_GbtTrain(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  ml::Matrix x(rows, 15);
  std::vector<double> y(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 0) * x.at(i, 0) + 2.0 * x.at(i, 5) + rng.normal(0.0, 0.1);
  }
  ml::GbtConfig config;
  config.trees = 100;
  config.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    ml::GradientBoostedTrees model(config);
    model.fit(x, y);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbtTrain)
    ->Args({500, 1})
    ->Args({2000, 1})
    ->Args({2000, 0});

// Serving-path engines on the same fitted model (default config: 200
// trees, depth 4) and the same 2000-row batch. Arg 0 selects the engine:
//   0 = per-row pointer node-walk (the reference path and pre-flattening
//       serving path),
//   1 = per-row flattened walk (predict routed through the FlatEnsemble),
//   2 = flattened row-blocked batch engine, serial,
//   3 = flattened batch engine over a hardware-concurrency pool.
// All four produce bit-identical outputs (pinned by the tier-2
// equivalence suite), so the times are directly comparable; speedups are
// recorded in BENCH_predict.json.
void BM_GbtPredict(benchmark::State& state) {
  Rng rng(4);
  ml::Matrix x(2000, 15);
  std::vector<double> y(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 2) + rng.normal(0.0, 0.1);
  }
  ml::GradientBoostedTrees model;
  model.fit(x, y);
  const int engine = static_cast<int>(state.range(0));
  std::vector<double> out(x.rows());
  std::unique_ptr<ThreadPool> pool;
  if (engine == 3) pool = std::make_unique<ThreadPool>();
  for (auto _ : state) {
    switch (engine) {
      case 0:
        for (std::size_t r = 0; r < x.rows(); ++r)
          out[r] = model.predict_nodewalk(x.row(r));
        break;
      case 1:
        for (std::size_t r = 0; r < x.rows(); ++r)
          out[r] = model.predict(x.row(r));
        break;
      case 2:
        model.predict_batch(x, out);
        break;
      default:
        model.predict_batch(x, out, pool.get());
        break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredict)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Kernel-family ablation on the BM_GbtPredict workload: arg 0 is the
// forced ml::Kernel (1 = scalar, 2 = quantized; the portable quantized
// walk on non-AVX2 hosts and XFL_DISABLE_SIMD builds), arg 1 selects
// serial (0) or a hardware-concurrency pool (1). A row whose ensemble
// cannot run the kernel is skipped rather than silently measuring the
// fallback; every row is bit-identical to BM_GbtPredict/2, so the times
// are directly comparable.
void BM_GbtPredictKernel(benchmark::State& state) {
  Rng rng(4);
  ml::Matrix x(2000, 15);
  std::vector<double> y(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 2) + rng.normal(0.0, 0.1);
  }
  ml::GradientBoostedTrees model;
  model.fit(x, y);
  const auto kernel = static_cast<ml::Kernel>(state.range(0));
  if (model.flat().effective_kernel(kernel) != kernel) {
    state.SkipWithError("kernel unavailable on this host/build");
    return;
  }
  std::unique_ptr<ThreadPool> pool;
  if (state.range(1) != 0) pool = std::make_unique<ThreadPool>();
  std::vector<double> out(x.rows());
  for (auto _ : state) {
    model.flat().predict_batch(x, out, pool.get(), kernel);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(ml::kernel_name(kernel));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredictKernel)
    ->ArgNames({"kernel", "pool"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({1, 1})
    ->Args({2, 1});

// Few-row calls, the shape of per-edge serving: the predictor splits each
// server batch by serving model, so most kernel calls carry 1-3 rows.
// Each iteration predicts `rows` rows with the next of 32 fitted
// ensembles (default config: 200 trees, depth 4), so the caches see a
// rotation like the served model's 32 models do. Arg 0 is the row count,
// arg 1 the forced ml::Kernel (1 = scalar, 2 = quantized, whose calls
// below the few-row crossover take the few-row walk). DESIGN.md §7.1
// cites these times for the crossover.
void BM_GbtPredictRows(benchmark::State& state) {
  constexpr std::size_t kModels = 32;
  constexpr std::size_t kCols = 15;
  static const std::vector<ml::GradientBoostedTrees> models = [] {
    std::vector<ml::GradientBoostedTrees> fitted;
    for (std::size_t m = 0; m < kModels; ++m) {
      Rng rng(100 + m);
      ml::Matrix x(600, kCols);
      std::vector<double> y(x.rows());
      for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t c = 0; c < kCols; ++c) x.at(i, c) = rng.normal();
        y[i] = x.at(i, m % kCols) - 0.5 * x.at(i, (m + 3) % kCols) +
               rng.normal(0.0, 0.1);
      }
      ml::GbtConfig config;
      config.threads = 1;
      config.seed = 100 + m;
      fitted.emplace_back(config);
      fitted.back().fit(x, y);
    }
    return fitted;
  }();
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto kernel = static_cast<ml::Kernel>(state.range(1));
  for (const auto& model : models) {
    if (model.flat().effective_kernel(kernel) != kernel) {
      state.SkipWithError("kernel unavailable on this host/build");
      return;
    }
  }
  std::vector<ml::Matrix> queries;
  Rng rng(7);
  for (std::size_t m = 0; m < kModels; ++m) {
    queries.emplace_back(rows, kCols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < kCols; ++c)
        queries.back().at(r, c) = rng.normal();
  }
  std::vector<double> out(rows);
  std::size_t m = 0;
  for (auto _ : state) {
    models[m].flat().predict_batch(queries[m], out, nullptr, kernel);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    m = m + 1 == kModels ? 0 : m + 1;
  }
  state.SetLabel(ml::kernel_name(kernel));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_GbtPredictRows)
    ->ArgNames({"rows", "kernel"})
    ->ArgsProduct({{1, 2, 3, 4, 6, 8, 16}, {1, 2}});

// Batch prediction over row blocks; arg is GbtConfig::threads.
void BM_GbtPredictBatch(benchmark::State& state) {
  Rng rng(4);
  ml::Matrix x(20000, 15);
  std::vector<double> y(20000);
  for (std::size_t i = 0; i < 20000; ++i) {
    for (std::size_t c = 0; c < 15; ++c) x.at(i, c) = rng.normal();
    y[i] = x.at(i, 2) + rng.normal(0.0, 0.1);
  }
  ml::GbtConfig config;
  config.threads = static_cast<int>(state.range(0));
  ml::GradientBoostedTrees model(config);
  model.fit(x, y);
  for (auto _ : state) {
    auto out = model.predict(x);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_GbtPredictBatch)->Arg(1)->Arg(0);

void BM_Mic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = x[i] * x[i] + rng.normal(0.0, 0.1);
  }
  for (auto _ : state) benchmark::DoNotOptimize(ml::mic(x, y));
}
BENCHMARK(BM_Mic)->Arg(250)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
