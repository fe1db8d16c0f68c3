// The `pipeline` workload: one closed, single-job reproduction of the
// paper's production study — simulate, write and re-read the CSV log,
// build the Eq. 2 contention features, fit on the first 80% of transfers
// by start time, save and reload the predictor, and predict the last 20%
// with their logged load. Also builds the serve workloads' inputs.
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/units.hpp"
#include "data.hpp"
#include "ml/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace xc = xfl::core;
namespace xl = xfl::logs;

namespace {

/// Fixed seed of the serve workloads' model: their inputs vary by --seed
/// through the request schedule, not the model.
constexpr std::uint64_t kServeModelSeed = 20170630;
constexpr double kTrainShare = 0.8;
constexpr int kContentionThreads = 4;

/// Times one call into a layer; in traced runs it is also an obs span, so
/// the Chrome trace shows the benchmark's layer boundaries.
class Stage {
 public:
  Stage(const char* name, double& seconds)
      : span_(name), seconds_(seconds), start_(Clock::now()) {}
  ~Stage() { seconds_ = seconds_since(start_); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  xfl::obs::Span span_;
  double& seconds_;
  Clock::time_point start_;
};

xc::PlannedTransfer planned(const xl::TransferRecord& record) {
  xc::PlannedTransfer transfer;
  transfer.src = record.src;
  transfer.dst = record.dst;
  transfer.bytes = record.bytes;
  transfer.files = record.files;
  transfer.dirs = record.dirs;
  transfer.concurrency = record.concurrency;
  transfer.parallelism = record.parallelism;
  return transfer;
}

bool same_record(const xl::TransferRecord& a, const xl::TransferRecord& b) {
  return a.id == b.id && a.src == b.src && a.dst == b.dst &&
         a.start_s == b.start_s && a.end_s == b.end_s && a.bytes == b.bytes &&
         a.files == b.files && a.dirs == b.dirs &&
         a.concurrency == b.concurrency && a.parallelism == b.parallelism &&
         a.faults == b.faults && a.src_type == b.src_type &&
         a.dst_type == b.dst_type;
}

/// One full pass, simulate through MdAPE, with its stage times.
struct Rep {
  double wall_s = 0.0;
  double sim_s = 0.0, write_s = 0.0, read_s = 0.0, analyze_s = 0.0;
  double contention_s = 0.0, fit_s = 0.0, save_s = 0.0, load_s = 0.0;
  /// The contention sweep of the analyze_log call inside fit().
  double fit_contention_s = 0.0;
  double eval_s = 0.0;
  double csv_mb = 0.0, model_mb = 0.0;
  std::size_t transfers = 0, holdout = 0;
  double mdape_pct = 0.0;
  Tally all, fit, eval;  ///< Counter deltas: whole pass, fit, predict.
  std::string kernel;
};

Rep run_rep(const xfl::sim::Scenario& scenario, const Options& options,
            Result& result) {
  Rep rep;
  const Tally tally_start = Tally::now();
  const auto start = Clock::now();

  xfl::sim::SimResult simulated;
  {
    Stage stage("bench.sim.run", rep.sim_s);
    simulated = scenario.run();
  }
  rep.transfers = simulated.log.size();

  const std::string csv_path = options.work_dir + "/transfer_log.csv";
  {
    Stage stage("bench.logs.write_csv", rep.write_s);
    std::ofstream out(csv_path, std::ios::binary);
    simulated.log.write_csv(out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + csv_path);
  }
  rep.csv_mb = file_mb(csv_path);
  xl::LogStore read;
  {
    Stage stage("bench.logs.read_csv", rep.read_s);
    std::ifstream in(csv_path, std::ios::binary);
    read = xl::LogStore::read_csv(in);
  }
  // Oracle: the CSV round-trips record for record.
  result.attempted += simulated.log.size();
  if (read.size() != simulated.log.size())
    result.fail("csv round trip: " + std::to_string(read.size()) + " of " +
                std::to_string(simulated.log.size()) + " records");
  for (std::size_t i = 0; i < std::min(read.size(), simulated.log.size()); ++i)
    if (!same_record(read[i], simulated.log[i]))
      result.fail("csv round trip: record " + std::to_string(i) + " differs");

  const Tally tally_analyze = Tally::now();
  xc::AnalysisContext context;
  {
    Stage stage("bench.core.analyze_log", rep.analyze_s);
    context = xc::analyze_log(std::move(read), kContentionThreads);
  }
  rep.contention_s =
      (Tally::now() - tally_analyze).sum("contention.sweep_us") / 1e6;

  const Split split = split_by_start(context, kTrainShare);
  rep.holdout = split.holdout.transfers.size();

  const Tally tally_fit = Tally::now();
  xc::TransferPredictor predictor;
  {
    Stage stage("bench.core.fit", rep.fit_s);
    predictor.fit(split.train);
  }
  rep.fit = Tally::now() - tally_fit;
  rep.fit_contention_s = rep.fit.sum("contention.sweep_us") / 1e6;

  const std::string model_path = options.work_dir + "/model.txt";
  {
    Stage stage("bench.core.save_file", rep.save_s);
    predictor.save_file(model_path);
  }
  rep.model_mb = file_mb(model_path);
  std::optional<xc::TransferPredictor> loaded;
  {
    Stage stage("bench.core.load_file", rep.load_s);
    loaded.emplace(xc::TransferPredictor::load_file(model_path));
  }

  const Tally tally_eval = Tally::now();
  std::vector<double> fitted_rates, loaded_rates;
  {
    Stage stage("bench.core.predict_rates_mbps", rep.eval_s);
    fitted_rates = predictor.predict_rates_mbps(split.holdout.transfers,
                                                split.holdout.loads);
    loaded_rates = loaded->predict_rates_mbps(split.holdout.transfers,
                                              split.holdout.loads);
  }
  rep.eval = Tally::now() - tally_eval;
  // Oracle: the reloaded predictor answers bit-for-bit like the fitted one.
  result.attempted += fitted_rates.size();
  for (std::size_t i = 0; i < fitted_rates.size(); ++i)
    if (std::bit_cast<std::uint64_t>(fitted_rates[i]) !=
        std::bit_cast<std::uint64_t>(loaded_rates[i]))
      result.fail("load_file: holdout row " + std::to_string(i) +
                  " predicts differently after reload");
  rep.mdape_pct = xfl::ml::mdape(split.holdout.actual_mbps, fitted_rates);
  rep.wall_s = seconds_since(start);
  rep.all = Tally::now() - tally_start;
  rep.kernel = loaded->serving_kernel();
  return rep;
}

void write_trace(const Options& options) {
  std::filesystem::create_directories(options.trace_dir);
  const std::string path = options.trace_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  xfl::obs::write_chrome_trace(out);
}

/// Total time of the recorded `inner` spans that started inside an `outer`
/// span, in seconds.
double nested_span_s(const char* outer, const char* inner) {
  const auto events = xfl::obs::trace_events();
  std::uint64_t total_us = 0;
  for (const auto& o : events) {
    if (std::strcmp(o.name, outer) != 0) continue;
    for (const auto& i : events)
      if (std::strcmp(i.name, inner) == 0 && i.ts_us >= o.ts_us &&
          i.ts_us < o.ts_us + o.dur_us)
        total_us += i.dur_us;
  }
  return static_cast<double>(total_us) / 1e6;
}

/// `fit_analyze_s`: the analyze_log that fit() runs on its training log,
/// from the traced pass's spans; it counts as features time, not fit's.
void fill_layers(const Rep& traced, double fit_analyze_s,
                 double untraced_wall_s, Result& result) {
  auto& l = result.layers;
  l["sim.run_s"] = traced.sim_s;
  l["sim.events"] = traced.all.count("sim.events");
  l["sim.us_per_event"] = ratio(traced.sim_s * 1e6, l["sim.events"]);
  l["logs.write_csv_s"] = traced.write_s;
  l["logs.read_csv_s"] = traced.read_s;
  l["logs.csv_mb"] = traced.csv_mb;
  const double capabilities_s = traced.analyze_s - traced.contention_s;
  const double fit_capabilities_s = fit_analyze_s - traced.fit_contention_s;
  l["features.contention_s"] = traced.contention_s + traced.fit_contention_s;
  l["features.capabilities_s"] = capabilities_s + fit_capabilities_s;
  const double tree_s = traced.fit.sum("gbt.fit.tree_us") / 1e6;
  const double bin_s = traced.fit.sum("gbt.fit.bin_us") / 1e6;
  l["core.fit_s"] = traced.fit_s;
  // Per-edge models plus the global fallback.
  l["core.models"] = traced.fit.count("predictor.fit.edge_models") + 1.0;
  l["core.fit_other_s"] = traced.fit_s - fit_analyze_s - tree_s - bin_s;
  l["ml.fit_tree_s"] = tree_s;
  l["ml.fit_bin_s"] = bin_s;
  l["ml.trees"] = traced.fit.count("gbt.fit.trees");
  l["core.save_s"] = traced.save_s;
  l["core.load_s"] = traced.load_s;
  l["core.model_mb"] = traced.model_mb;
  l["core.eval_s"] = traced.eval_s;
  const double hits = traced.eval.count("predictor.predict.edge_hits");
  l["core.edge_hit_share"] = ratio(
      hits, hits + traced.eval.count("predictor.predict.global_fallbacks"));
  l["common.pool_tasks"] = traced.all.count("threadpool.tasks");
  l["common.pool_wait_us"] = traced.all.mean("threadpool.task_wait_us");
  l["obs.trace_overhead"] = ratio(traced.wall_s, untraced_wall_s);

  Ledger ledger;
  ledger.base = "pipeline_s (traced pass)";
  ledger.unit = "s";
  ledger.total = traced.wall_s;
  ledger.rows = {
      {"sim.run", traced.sim_s},
      {"logs.write_csv", traced.write_s},
      {"logs.read_csv", traced.read_s},
      {"features.contention", traced.contention_s},
      {"features.capabilities", capabilities_s},
      {"features.contention (in fit)", traced.fit_contention_s},
      {"features.capabilities (in fit)", fit_capabilities_s},
      {"core.fit (self)", l["core.fit_other_s"]},
      {"ml.fit_tree", tree_s},
      {"ml.fit_bin", bin_s},
      {"core.save_file", traced.save_s},
      {"core.load_file", traced.load_s},
      {"core.predict (x2)", traced.eval_s},
  };
  l["ledger.unattributed_share"] =
      ratio(ledger.unattributed(), ledger.total);
  result.ledgers.push_back(std::move(ledger));
}

}  // namespace

xfl::sim::ProductionConfig production_config(std::uint64_t seed, bool tiny) {
  xfl::sim::ProductionConfig config;
  config.seed = seed;
  if (tiny) {
    config.duration_s = 86400.0;
    config.tail_edges = 20;
  }
  return config;
}

Split split_by_start(const xc::AnalysisContext& context, double train_share) {
  const auto& log = context.log;
  std::vector<std::size_t> order(log.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return log[a].start_s < log[b].start_s;
                   });
  const auto cut = static_cast<std::size_t>(
      train_share * static_cast<double>(order.size()));
  Split split;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& record = log[order[k]];
    if (k < cut) {
      split.train.append(record);
      continue;
    }
    split.holdout.transfers.push_back(planned(record));
    split.holdout.loads.push_back(context.contention[order[k]]);
    split.holdout.actual_mbps.push_back(xfl::to_mbps(record.rate_Bps()));
  }
  return split;
}

ServeData make_serve_data(const Options& options) {
  ServeData data;
  data.model_path = options.work_dir + "/serve_model.txt";
  {
    const auto scenario = xfl::sim::make_production(
        production_config(kServeModelSeed, options.self_check));
    Split split = split_by_start(
        xc::analyze_log(scenario.run().log, kContentionThreads), kTrainShare);
    xc::TransferPredictor predictor;
    predictor.fit(split.train);
    predictor.save_file(data.model_path);
    data.pool = std::move(split.holdout);
  }
  // Hand the simulation's and the fit's memory back to the system, so the
  // serving phases' resident set is the server's own.
  ::malloc_trim(0);
  return data;
}

Result run_pipeline(const Options& options) {
  Result result;
  const auto config = production_config(options.seed, options.self_check);

  // Set-up: constructing the scenario (catalogues, workload, background
  // processes), repeated before and after every pass; the fastest counts,
  // so a slow spell of the shared host has to cover the whole run to move
  // it.
  std::vector<double> setup_s;
  std::optional<xfl::sim::Scenario> scenario;
  HostSpeed host;
  const auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      host.sample();
      scenario.reset();
      const auto start = Clock::now();
      scenario.emplace(xfl::sim::make_production(config));
      setup_s.push_back(seconds_since(start));
    }
  };
  set_up(5);

  // One untraced pass per kSecondsPerPass of the measuring window (at
  // least one), a count fixed by --seconds rather than by how fast the
  // host happens to run, so memory and medians compare across runs. A
  // traced run makes one untraced and one traced pass.
  constexpr double kSecondsPerPass = 10.0;
  const int passes =
      options.trace
          ? 1
          : std::max(1, static_cast<int>(options.seconds / kSecondsPerPass));
  std::vector<Rep> reps;
  for (int pass = 0; pass < passes; ++pass) {
    reps.push_back(run_rep(*scenario, options, result));
    set_up(1);
  }
  for (const auto& rep : reps)
    if (rep.mdape_pct != reps.front().mdape_pct)
      result.fail("pipeline is not deterministic: MdAPE differs between passes");
  result.kernel = reps.front().kernel;

  std::vector<double> walls;
  for (const auto& rep : reps) walls.push_back(rep.wall_s);
  const Rep& first = reps.front();
  const double pipeline_s = median(walls);
  auto& e = result.e2e;
  const double fastest_setup_s =
      *std::min_element(setup_s.begin(), setup_s.end());
  e["setup_s"] = fastest_setup_s / host.factor();
  const double transfers_per_s =
      ratio(static_cast<double>(first.transfers), pipeline_s);
  e["throughput_ref_per_s"] = transfers_per_s * host.factor();
  e["p50_ref_us"] = pipeline_s * 1e6 / host.factor();
  e["model_mdape_pct"] = first.mdape_pct;

  if (options.trace) {
    xfl::obs::clear_trace();
    xfl::obs::set_tracing_enabled(true);
    const Rep traced = run_rep(*scenario, options, result);
    xfl::obs::set_tracing_enabled(false);
    write_trace(options);
    const double fit_analyze_s =
        nested_span_s("bench.core.fit", "core.analyze_log");
    xfl::obs::clear_trace();
    fill_layers(traced, fit_analyze_s, first.wall_s, result);
  }
  e["peak_rss_mb"] = peak_rss_mb();

  result.named = {
      {"pipeline_s", pipeline_s},
      {"slowest_pass_s", *std::max_element(walls.begin(), walls.end())},
      {"passes", static_cast<double>(reps.size())},
      {"setup_s (fastest)", fastest_setup_s},
      {"setup_s (median)", median(setup_s)},
      {"set-ups", static_cast<double>(setup_s.size())},
      {"model_mdape_pct", first.mdape_pct},
      {"transfers", static_cast<double>(first.transfers)},
      {"holdout_rows", static_cast<double>(first.holdout)},
      {"transfers_per_s", transfers_per_s},
      {"host_msteps", host.median_msteps()},
      {"host_factor", host.factor()},
      {"sim_s", first.sim_s},
      {"fit_s", first.fit_s},
      {"csv_mb", first.csv_mb},
      {"model_mb", first.model_mb},
      {"peak_rss_mb", e["peak_rss_mb"]},
  };
  return result;
}

}  // namespace perfbench
