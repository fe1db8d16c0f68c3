// The serve workloads. Both run an in-process PredictionServer (2 batcher
// shards) over a model fitted on the production preset and drive it
// through 4 loopback connections from one load-generator thread; the
// requests are the model's held-out transfers with their logged load.
//   * serve_predict — plain predicts over XFLBIN1 binary framing: a
//     closed loop for throughput, an open loop at a fixed anchor rate for
//     latency, and an open-loop ladder of fixed rates for the highest rate
//     that meets the latency limit.
//   * serve_mixed — line-delimited JSON at one fixed open-loop rate, ~80%
//     predict, ~10% explain, ~10% feedback on recent predictions joined by
//     the drift monitor and appended to a retrain journal.
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <random>
#include <tuple>

#include "data.hpp"
#include "loadgen.hpp"
#include "ml/metrics.hpp"
#include "obs/trace.hpp"
#include "retrain/retrainer.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace xc = xfl::core;
namespace xs = xfl::serve;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWindow = 32;        ///< Closed loop, per connection.
constexpr double kSliceS = 0.5;            ///< Closed-loop rate slices.
constexpr double kLatencyLimitUs = 1000.0; ///< The p99 limit of slo_rps.
/// Generator lateness (p99) above which an open-loop level is invalid.
constexpr double kMaxLateUs = 100.0;
constexpr double kAnchorRate = 20000.0;    ///< serve_predict latency rate.
constexpr double kLadderBase = 10000.0;    ///< Ladder rung k: base * step^k.
constexpr double kLadderStep = 1.1;
constexpr double kLadderLevelS = 0.25;
/// serve_mixed's one rate: a fifth of the server's mixed closed-loop rate,
/// so latency stays off the queueing knee even when a busy shared host
/// halves the server's capacity for a whole run.
constexpr double kMixedRate = 4000.0;
/// End-to-end open-loop percentiles are medians over windows of this
/// length holding at least kMinWindow requests (ten beyond the p99).
constexpr double kWindowS = 1.0;
constexpr std::size_t kMinWindow = 1000;
constexpr std::size_t kRecentTraces = 256; ///< Feedback candidates kept.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The request pool, the oracle's direct answers, and what the replies
/// showed (served rates for MdAPE, trace ids for feedback).
struct Pool {
  Pool(const ServeData& serve_data, std::uint64_t seed)
      : data(serve_data), rng(seed) {}

  std::uint32_t pick() {
    return std::uniform_int_distribution<std::uint32_t>(
        0, static_cast<std::uint32_t>(data.pool.transfers.size() - 1))(rng);
  }
  double uniform() { return std::uniform_real_distribution<double>()(rng); }

  void served(const Request& request, const Reply& reply) {
    if (!collect) return;
    served_mbps.push_back(reply.rate_mbps);
    actual_mbps.push_back(data.pool.actual_mbps[request.pool]);
  }

  const ServeData& data;
  std::mt19937_64 rng;
  std::vector<double> expected;                   ///< Direct predictions.
  std::vector<xc::RateExplanation> explanations;  ///< Direct explanations.
  bool collect = false;  ///< Record served rates (the latency phase).
  std::vector<double> served_mbps, actual_mbps;
  /// Answered predictions not yet reported on: (trace id, pool row).
  std::deque<std::pair<std::uint64_t, std::uint32_t>> recent;
  std::uint64_t feedback_matched = 0;
};

xs::PredictionServer::Options server_options() {
  xs::PredictionServer::Options options;
  options.port = 0;
  options.shards = kShards;
  // Feedback carries real observed rates; the alarm (and with it any
  // retrain trigger) must stay down so the run measures steady state.
  options.monitor.drift_threshold_pct = 1e12;
  return options;
}

/// Load the model, start the server (with the retrain journal hook when
/// `journal_dir` is set) and connect the load generator.
class ServeStack {
 public:
  ServeStack(const std::string& model_path, const std::string& journal,
             bool binary, const Traffic& traffic, double& load_s)
      : journal_dir(journal) {
    {
      xfl::obs::Span span("bench.core.load_file");
      const auto start = Clock::now();
      predictor = std::make_shared<const xc::TransferPredictor>(
          xc::TransferPredictor::load_file(model_path));
      load_s = seconds_since(start);
    }
    host_ = std::make_unique<xs::ModelHost>(predictor, model_path);
    server_ = std::make_unique<xs::PredictionServer>(*host_, server_options());
    if (!journal_dir.empty()) {
      xfl::retrain::TrainingJournal::Options journal;
      journal.directory = journal_dir;
      // Appends only: the fsyncs at a cadence or at segment rotation
      // would measure the host's disk, not the write path.
      journal.fsync_every = 0;
      journal.max_segment_bytes = std::size_t{1} << 30;
      xfl::retrain::RetrainOptions retrain;
      retrain.interval_ms = 0;
      retrain.alarm_retry_ms = 0;
      retrain_ = std::make_unique<xfl::retrain::RetrainService>(
          *server_, journal, retrain);
    }
    {
      xfl::obs::Span span("bench.serve.start");
      server_->start();
    }
    xfl::obs::Span span("bench.loadgen.connect");
    gen_ = std::make_unique<LoadGen>(server_->port(), kConnections, binary,
                                     traffic);
  }
  ~ServeStack() {
    gen_.reset();
    server_->stop();
    retrain_.reset();  // After stop(): its hooks may run until then.
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  LoadGen& gen() { return *gen_; }

  const std::string journal_dir;
  std::shared_ptr<const xc::TransferPredictor> predictor;

 private:
  std::unique_ptr<xs::ModelHost> host_;
  std::unique_ptr<xs::PredictionServer> server_;
  std::unique_ptr<xfl::retrain::RetrainService> retrain_;
  std::unique_ptr<LoadGen> gen_;
};

/// Builds serve stacks and times every build. setup_s is the fastest
/// build: untraced runs also build (and tear down) a stack beside the
/// measured one after every round, so a slow spell of the shared host has
/// to cover the whole run to move it.
class SetUps {
 public:
  SetUps(const Options& options, const ServeData& data, bool binary,
         bool journal, const Traffic& traffic)
      : options_(options),
        data_(data),
        binary_(binary),
        journal_(journal),
        traffic_(traffic) {}

  std::unique_ptr<ServeStack> build() {
    const std::string journal_dir =
        journal_ ? options_.work_dir + "/journal-" +
                       std::to_string(setup_s.size())
                 : "";
    const auto start = Clock::now();
    double load = 0.0;
    auto stack = std::make_unique<ServeStack>(data_.model_path, journal_dir,
                                              binary_, traffic_, load);
    setup_s.push_back(seconds_since(start));
    load_s.push_back(load);
    return stack;
  }
  /// Build and tear down `n` stacks, handing their memory back so the
  /// measured stack's resident set stays its own.
  void probe(int n) {
    for (int i = 0; i < n; ++i) build();
    ::malloc_trim(0);
  }
  double fastest_s() const {
    return *std::min_element(setup_s.begin(), setup_s.end());
  }

  std::vector<double> setup_s, load_s;

 private:
  const Options& options_;
  const ServeData& data_;
  bool binary_;
  bool journal_;
  const Traffic& traffic_;
};

/// Set-ups before measuring; the last one's stack is measured.
constexpr int kSetups = 5;

/// Fold one phase's outcomes into the run's attempted/failed counts. Above
/// the ladder's knee refusals are expected; wrong answers never are.
void absorb(Result& result, const std::string& phase, const PhaseStats& stats,
            bool below_knee = true) {
  result.attempted += stats.sent;
  const std::uint64_t failed = below_knee ? stats.failed() : stats.wrong;
  if (failed == 0) return;
  result.failed += failed;
  if (result.errors.size() < 8)
    result.errors.push_back(
        phase + ": " + std::to_string(stats.wrong) + " wrong, " +
        std::to_string(stats.refused) + " refused, " +
        std::to_string(stats.timed_out) + " timed out, " +
        std::to_string(stats.errors) + " errors of " +
        std::to_string(stats.sent));
}

double dir_mb(const std::string& dir) {
  namespace fs = std::filesystem;
  double mb = 0.0;
  std::error_code error;
  for (fs::recursive_directory_iterator it(dir, error), end; !error && it != end;
       it.increment(error))
    if (it->is_regular_file(error)) mb += file_mb(it->path().string());
  return mb;
}

/// The serve ledger: mean client latency of batched requests split into
/// the server's stage means (per request: parse, queue wait; per batch:
/// assemble, predictor, kernel, respond) and the time outside the server.
Ledger serve_ledger(const std::string& base, double client_mean_us,
                    const Tally& d) {
  const double batches = d.count("serve.batch.count");
  const double kernel_us =
      ratio(d.sum("gbt.predict.batch_us") + d.sum("gbt.explain.batch_us"),
            batches);
  Ledger ledger;
  ledger.base = base;
  ledger.unit = "us";
  ledger.total = client_mean_us;
  ledger.rows = {
      {"serve.parse", d.mean("serve.request.parse_us")},
      {"serve.queue_wait", d.mean("serve.request.queue_wait_us")},
      {"serve.assemble", d.mean("serve.batch.assemble_us")},
      {"core.predictor (self)", d.mean("serve.batch.predict_us") - kernel_us},
      {"ml.kernel", kernel_us},
      {"serve.respond", d.mean("serve.batch.respond_us")},
      {"outside server", client_mean_us - d.mean("serve.request.server_us")},
  };
  return ledger;
}

/// Per-layer metrics of one traced serve phase (`d`: its counter deltas;
/// `open`: the traced open-loop phase the generator rows describe).
void fill_serve_layers(const SetUps& set_ups, const ServeData& data,
                       const Tally& d, double client_mean_us,
                       const PhaseStats& open, double overhead,
                       const std::string& journal_dir, Ledger ledger,
                       Result& result) {
  auto& l = result.layers;
  l["core.load_s"] = median(set_ups.load_s);
  l["core.model_mb"] = file_mb(data.model_path);
  const double hits = d.count("predictor.predict.edge_hits");
  l["core.edge_hit_share"] =
      ratio(hits, hits + d.count("predictor.predict.global_fallbacks"));
  l["common.pool_tasks"] = d.count("threadpool.tasks");
  l["common.pool_wait_us"] = d.mean("threadpool.task_wait_us");
  const double batches = d.count("serve.batch.count");
  l["serve.parse_us"] = d.mean("serve.request.parse_us");
  l["serve.queue_wait_us"] = d.mean("serve.request.queue_wait_us");
  l["serve.batch_rows"] = ratio(d.count("serve.batch.rows"), batches);
  l["serve.batches"] = batches;
  l["serve.steals"] = d.count("serve.batch.steals");
  l["serve.assemble_us"] = d.mean("serve.batch.assemble_us");
  l["serve.predict_us"] = d.mean("serve.batch.predict_us");
  l["serve.respond_us"] = d.mean("serve.batch.respond_us");
  l["ml.rows_per_batch"] =
      ratio(d.count("gbt.predict.rows"), d.count("gbt.predict.batches"));
  l["ml.kernel_us_per_row"] =
      ratio(d.sum("gbt.predict.batch_us"), d.count("gbt.predict.rows"));
  l["ml.explain_rows"] = d.count("gbt.explain.rows");
  l["ml.explain_us_per_row"] =
      ratio(d.sum("gbt.explain.batch_us"), d.count("gbt.explain.rows"));
  l["serve.server_us"] = d.mean("serve.request.server_us");
  l["serve.outside_us"] = client_mean_us - l["serve.server_us"];
  const double feedback = d.count("serve.feedback.count");
  l["serve.feedback_joins"] = feedback - d.count("serve.feedback.unmatched");
  l["serve.feedback_match_share"] = ratio(l["serve.feedback_joins"], feedback);
  l["serve.drift_alarms"] = d.count("serve.drift.alarms");
  l["retrain.journal_appends"] = d.count("retrain.journal.appended");
  l["retrain.journal_mb"] = journal_dir.empty() ? 0.0 : dir_mb(journal_dir);
  l["serve.overloaded"] = d.count("serve.request.overloaded");
  l["serve.timeouts"] = d.count("serve.request.timeout");
  l["loadgen.sent"] = static_cast<double>(open.sent);
  l["loadgen.ok"] = static_cast<double>(open.ok);
  l["loadgen.failed"] = static_cast<double>(open.failed());
  l["loadgen.late_p99_us"] = quantile(open.late_us, 99.0);
  l["obs.trace_overhead"] = overhead;
  l["ledger.unattributed_share"] = ratio(ledger.unattributed(), ledger.total);
  result.ledgers.push_back(std::move(ledger));
}

struct Level {
  double rate = 0.0;
  double p50_us = 0.0, p99_us = 0.0, late_p99_us = 0.0;
  PhaseStats stats;
  bool valid = false;  ///< The generator kept its schedule.
  bool pass = false;   ///< Valid, p99 within the limit, no growing backlog.
};

Level open_level(LoadGen& gen, double rate, double seconds,
                 std::uint64_t seed) {
  Level level;
  level.rate = rate;
  level.stats = gen.open_loop(poisson_schedule(rate, seconds, seed));
  const auto latencies = level.stats.all_latency_us();
  level.p50_us = quantile(latencies, 50.0);
  level.p99_us = quantile(latencies, 99.0);
  level.late_p99_us = quantile(level.stats.late_us, 99.0);
  level.valid = level.late_p99_us <= kMaxLateUs;
  // A backlog over one latency limit's worth of arrivals is growing.
  const double backlog_limit = std::max(16.0, rate * kLatencyLimitUs / 1e6);
  level.pass = level.valid && level.p99_us <= kLatencyLimitUs &&
               static_cast<double>(level.stats.backlog) <= backlog_limit &&
               level.stats.failed() == 0;
  return level;
}

std::string level_line(const Level& level) {
  char line[256];
  std::snprintf(line, sizeof line,
                "  %10.0f %10.1f %10.1f %10.1f %9llu %9llu %8llu %8s %s",
                level.rate, level.p50_us, level.p99_us, level.late_p99_us,
                static_cast<unsigned long long>(level.stats.sent),
                static_cast<unsigned long long>(level.stats.ok),
                static_cast<unsigned long long>(level.stats.refused),
                level.valid ? "yes" : "NO", level.pass ? "pass" : "miss");
  return line;
}

const char* kLevelHeader =
    "        rate     p50 us     p99 us    late us      sent        ok "
    " refused  on time  limit";

/// Interleaved measurement: each of kRounds rounds runs a closed-loop
/// chunk and then an open-loop chunk at `rate`, so a slow spell of the
/// shared host lands on a minority of rounds instead of on one whole
/// phase. A round in which the generator ran late in every window (the
/// host stalled it) measured no latency, so another round is added in its
/// place, up to kRounds extra. The figures are taken over all rounds'
/// slices and windows.
struct Rounds {
  std::vector<double> slice_rps;
  HostSpeed host;  ///< Sampled before every chunk.
  std::vector<double> p50_windows_us, p99_windows_us;
  std::vector<double> latency_us[kKinds];  ///< Every open-loop request.
  /// Highest resident set seen at the end of a chunk, MB.
  double resident_mb = 0.0;
  int count = 0;
};

Rounds measure_rounds(LoadGen& gen, double closed_s, double open_s,
                      double rate, std::uint64_t seed, Pool& pool,
                      SetUps& set_ups, Result& result) {
  constexpr int kRounds = 4;
  const double closed_chunk = closed_s / kRounds;
  const double slice_s = std::min(kSliceS, closed_chunk / 3.0);
  Rounds rounds;
  result.notes.push_back("open loop, one row per round:");
  result.notes.push_back(kLevelHeader);
  for (int measured = 0; measured < kRounds && rounds.count < 2 * kRounds;
       ++rounds.count) {
    const int i = rounds.count;
    rounds.host.sample();
    const PhaseStats closed = gen.closed_loop(closed_chunk, kWindow, slice_s);
    absorb(result, "closed loop", closed);
    rounds.slice_rps.insert(rounds.slice_rps.end(), closed.slice_rps.begin(),
                            closed.slice_rps.end());
    rounds.resident_mb = std::max(rounds.resident_mb, resident_mb());
    rounds.host.sample();
    pool.collect = true;
    const Level level = open_level(gen, rate, open_s / kRounds, seed * 16 + i);
    pool.collect = false;
    absorb(result, "open loop", level.stats);
    result.notes.push_back(level_line(level));
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    const auto p50s = level.stats.window_quantiles_us(50.0, kWindowS,
                                                      kMinWindow, kMaxLateUs);
    if (!p50s.empty()) ++measured;
    append(rounds.p50_windows_us, p50s);
    append(rounds.p99_windows_us, level.stats.window_quantiles_us(
                                      99.0, kWindowS, kMinWindow, kMaxLateUs));
    for (std::size_t kind = 0; kind < kKinds; ++kind)
      append(rounds.latency_us[kind], level.stats.latency_us[kind]);
    rounds.resident_mb = std::max(rounds.resident_mb, resident_mb());
    set_ups.probe(1);
  }
  return rounds;
}

/// The end-to-end figures of the rounds at the reference host speed:
/// closed-loop rate, and the open-loop p50 as the median of the windows in
/// which the generator kept its schedule. With no such window the latency
/// is not reported and the run fails.
void set_rate_and_p50(const Rounds& rounds, Result& result) {
  const double factor = rounds.host.factor();
  result.e2e["throughput_ref_per_s"] = median(rounds.slice_rps) * factor;
  result.attempted += 1;
  if (rounds.p50_windows_us.empty()) {
    result.fail("open loop: the generator ran late in every window, "
                "p50_ref_us withheld");
    return;
  }
  result.e2e["p50_ref_us"] = median(rounds.p50_windows_us) / factor;
}

double rung(int k) { return kLadderBase * std::pow(kLadderStep, k); }

/// Walk the fixed ladder from the rung below half the closed-loop rate:
/// up while levels pass, or down until one does. Returns the highest
/// passing rate (0 if none) and appends the table to the notes.
double climb_ladder(LoadGen& gen, double closed_rps, double budget_s,
                    std::uint64_t seed, Result& result) {
  result.notes.push_back("open-loop ladder (p99 limit 1000 us, levels " +
                         std::to_string(kLadderLevelS) + " s):");
  result.notes.push_back(kLevelHeader);
  int k = std::max(0, static_cast<int>(std::floor(
                          std::log(0.5 * closed_rps / kLadderBase) /
                          std::log(kLadderStep))));
  const auto start = Clock::now();
  int best = -1;
  int direction = 0;
  while (k >= 0 && seconds_since(start) < budget_s) {
    const Level level =
        open_level(gen, rung(k), kLadderLevelS, seed * 1000 + k);
    result.notes.push_back(level_line(level));
    absorb(result, "ladder", level.stats, level.pass);
    if (direction == 0) direction = level.pass ? 1 : -1;
    if (level.pass) {
      best = std::max(best, k);
      if (direction < 0) break;
    } else if (direction > 0 || !level.valid) {
      break;
    }
    k += direction;
  }
  return best < 0 ? 0.0 : rung(best);
}

}  // namespace

Result run_serve_predict(const Options& options) {
  Result result;
  const ServeData data = make_serve_data(options);
  Pool pool(data, options.seed);
  Traffic traffic;
  traffic.make = [&](Request& request) {
    request.kind = Kind::kPredict;
    request.pool = pool.pick();
  };
  traffic.encode = [&](std::string& out, std::uint64_t id,
                       const Request& request) {
    out += xs::binary_predict_request(id, data.pool.transfers[request.pool],
                                      data.pool.loads[request.pool]);
  };
  traffic.check = [&](const Request& request, const Reply& reply) {
    // Oracle: the served rate is bit-identical to a direct call.
    if (!same_bits(reply.rate_mbps, pool.expected[request.pool])) return false;
    pool.served(request, reply);
    return true;
  };

  SetUps set_ups(options, data, /*binary=*/true, /*journal=*/false, traffic);
  set_ups.probe(kSetups - 1);
  const auto stack = set_ups.build();
  pool.expected = stack->predictor->predict_rates_mbps(data.pool.transfers,
                                                       data.pool.loads);
  result.kernel = stack->predictor->serving_kernel();
  LoadGen& gen = stack->gen();
  const double r = options.seconds;

  absorb(result, "warm-up", gen.closed_loop(0.5, kWindow, kSliceS));
  if (!options.trace) {
    const Rounds rounds = measure_rounds(gen, 0.3 * r, 0.3 * r, kAnchorRate,
                                         options.seed, pool, set_ups, result);
    const double req_per_s = median(rounds.slice_rps);
    const double slo_rps =
        climb_ladder(gen, req_per_s, 0.3 * r, options.seed, result);
    const double serving_mb = std::max(rounds.resident_mb, resident_mb());
    const double mdape = pool.served_mbps.empty()
                             ? 0.0
                             : xfl::ml::mdape(pool.actual_mbps, pool.served_mbps);
    auto& e = result.e2e;
    e["setup_s"] = set_ups.fastest_s() / rounds.host.factor();
    set_rate_and_p50(rounds, result);
    e["model_mdape_pct"] = mdape;
    e["peak_rss_mb"] = serving_mb;
    const auto& anchor_us = rounds.latency_us[static_cast<std::size_t>(Kind::kPredict)];
    result.named = {
        {"setup_s (fastest)", set_ups.fastest_s()},
        {"setup_s (median)", median(set_ups.setup_s)},
        {"set-ups", static_cast<double>(set_ups.setup_s.size())},
        {"host_msteps", rounds.host.median_msteps()},
        {"host_factor", rounds.host.factor()},
        {"rounds", static_cast<double>(rounds.count)},
        {"req_per_s (closed loop)", req_per_s},
        {"p50_us (anchor 20k/s, window median)", median(rounds.p50_windows_us)},
        {"p99_us (anchor 20k/s, window median)", median(rounds.p99_windows_us)},
        {"p99_us (anchor 20k/s, all requests)", quantile(anchor_us, 99.0)},
        {"anchor_windows", static_cast<double>(rounds.p99_windows_us.size())},
        {"anchor_requests", static_cast<double>(anchor_us.size())},
        {"slo_rps (p99 <= 1 ms)", slo_rps},
        {"model_mdape_pct (served)", mdape},
        {"peak_rss_mb (serving)", serving_mb},
        {"peak_rss_mb (whole run)", peak_rss_mb()},
    };
  } else {
    const PhaseStats plain = gen.closed_loop(0.25 * r, kWindow, kSliceS);
    absorb(result, "closed loop", plain);
    xfl::obs::clear_trace();
    xfl::obs::set_tracing_enabled(true);
    const Tally before = Tally::now();
    const PhaseStats traced = gen.closed_loop(0.25 * r, kWindow, kSliceS);
    const Tally delta = Tally::now() - before;
    xfl::obs::clear_trace();
    const Level anchor = open_level(gen, kAnchorRate, 0.25 * r, options.seed);
    xfl::obs::set_tracing_enabled(false);
    xfl::obs::clear_trace();
    absorb(result, "closed loop (traced)", traced);
    absorb(result, "anchor (traced)", anchor.stats);
    const double client_us = traced.mean_latency_us({Kind::kPredict});
    fill_serve_layers(
        set_ups, data, delta, client_us, anchor.stats,
        ratio(median(plain.slice_rps), median(traced.slice_rps)), "",
        serve_ledger("closed-loop client latency, mean", client_us, delta),
        result);
  }
  return result;
}

Result run_serve_mixed(const Options& options) {
  Result result;
  const ServeData data = make_serve_data(options);
  Pool pool(data, options.seed);
  Traffic traffic;
  traffic.make = [&](Request& request) {
    const double u = pool.uniform();
    if (u >= 0.9 && !pool.recent.empty()) {
      request.kind = Kind::kFeedback;
      std::tie(request.feedback_trace, request.pool) = pool.recent.back();
      pool.recent.pop_back();
      return;
    }
    request.kind = u >= 0.8 && u < 0.9 ? Kind::kExplain : Kind::kPredict;
    request.pool = pool.pick();
    // Half the explains ask for every contribution (reconstructible from
    // the reply alone), half for the top 5.
    if (request.kind == Kind::kExplain) request.top_k = pool.uniform() < 0.5 ? 0 : 5;
  };
  traffic.encode = [&](std::string& out, std::uint64_t id,
                       const Request& request) {
    const std::string wire_id = std::to_string(id);
    const auto& transfer = data.pool.transfers[request.pool];
    const auto& load = data.pool.loads[request.pool];
    switch (request.kind) {
      case Kind::kPredict:
        out += xs::predict_request_line(wire_id, transfer, load);
        break;
      case Kind::kExplain:
        out += xs::explain_request_line(wire_id, transfer, load, 0,
                                        request.top_k);
        break;
      case Kind::kFeedback:
        out += xs::feedback_request_line(
            wire_id, xs::trace_id_string(request.feedback_trace),
            data.pool.actual_mbps[request.pool]);
        break;
    }
    out += '\n';
  };
  traffic.check = [&](const Request& request, const Reply& reply) {
    if (request.kind == Kind::kFeedback) {
      // Oracle: every report on a recent prediction joins.
      if (!reply.matched) return false;
      ++pool.feedback_matched;
      return true;
    }
    if (!same_bits(reply.rate_mbps, pool.expected[request.pool])) return false;
    if (request.kind == Kind::kPredict) {
      pool.served(request, reply);
      pool.recent.emplace_back(reply.trace_id, request.pool);
      if (pool.recent.size() > kRecentTraces) pool.recent.pop_front();
      return true;
    }
    // Oracle: the explanation is the direct one, and a full one rebuilds
    // the served rate exactly (ascending feature order, bias last).
    const auto& direct = pool.explanations[request.pool];
    if (!same_bits(reply.raw_mbps, direct.raw_mbps) ||
        !same_bits(reply.bias_mbps, direct.bias_mbps))
      return false;
    const std::size_t n = direct.feature_names.size();
    const std::size_t want = request.top_k == 0 ? n : std::min<std::size_t>(request.top_k, n);
    if (reply.contributions.size() != want) return false;
    std::vector<double> by_feature(n, 0.0);
    for (const auto& [name, mbps] : reply.contributions) {
      const auto it = std::find(direct.feature_names.begin(),
                                direct.feature_names.end(), name);
      if (it == direct.feature_names.end()) return false;
      const auto f = static_cast<std::size_t>(it - direct.feature_names.begin());
      if (!same_bits(mbps, direct.contributions[f])) return false;
      by_feature[f] = mbps;
    }
    if (request.top_k != 0) return true;
    double rebuilt = 0.0;
    for (const double c : by_feature) rebuilt += c;
    rebuilt += reply.bias_mbps;
    return same_bits(rebuilt, reply.raw_mbps) &&
           same_bits(reply.rate_mbps, std::max(reply.raw_mbps, 0.01));
  };

  SetUps set_ups(options, data, /*binary=*/false, /*journal=*/true, traffic);
  set_ups.probe(kSetups - 1);
  const auto stack = set_ups.build();
  const auto& predictor = *stack->predictor;
  pool.expected =
      predictor.predict_rates_mbps(data.pool.transfers, data.pool.loads);
  pool.explanations =
      predictor.explain_rates_mbps(data.pool.transfers, data.pool.loads);
  result.kernel = predictor.serving_kernel();
  LoadGen& gen = stack->gen();
  const double r = options.seconds;

  // Joins the run expects: every feedback answered ok matched (checked per
  // reply); the monitor and journal counters must agree with that count.
  const Tally start = Tally::now();
  absorb(result, "warm-up", gen.closed_loop(0.5, kWindow, kSliceS));
  if (!options.trace) {
    const Rounds rounds = measure_rounds(gen, 0.3 * r, 0.6 * r, kMixedRate,
                                         options.seed, pool, set_ups, result);
    const auto& by_kind = rounds.latency_us;
    std::vector<double> all_us;
    for (const auto& kind : by_kind) all_us.insert(all_us.end(), kind.begin(), kind.end());
    const double explain_p99 =
        quantile(by_kind[static_cast<std::size_t>(Kind::kExplain)], 99.0);
    const double feedback_p99 =
        quantile(by_kind[static_cast<std::size_t>(Kind::kFeedback)], 99.0);
    const double mdape = pool.served_mbps.empty()
                             ? 0.0
                             : xfl::ml::mdape(pool.actual_mbps, pool.served_mbps);
    auto& e = result.e2e;
    e["setup_s"] = set_ups.fastest_s() / rounds.host.factor();
    set_rate_and_p50(rounds, result);
    e["model_mdape_pct"] = mdape;
    e["peak_rss_mb"] = rounds.resident_mb;
    result.named = {
        {"setup_s (fastest)", set_ups.fastest_s()},
        {"setup_s (median)", median(set_ups.setup_s)},
        {"set-ups", static_cast<double>(set_ups.setup_s.size())},
        {"host_msteps", rounds.host.median_msteps()},
        {"host_factor", rounds.host.factor()},
        {"rounds", static_cast<double>(rounds.count)},
        {"req_per_s (closed loop, mixed)", median(rounds.slice_rps)},
        {"p50_us (4k/s, window median)", median(rounds.p50_windows_us)},
        {"p99_us (4k/s, window median)", median(rounds.p99_windows_us)},
        {"p99_us (4k/s, all requests)", quantile(all_us, 99.0)},
        {"windows", static_cast<double>(rounds.p99_windows_us.size())},
        {"explain_p99_us", explain_p99},
        {"feedback_p99_us", feedback_p99},
        {"explain_requests", static_cast<double>(
                                 by_kind[static_cast<std::size_t>(Kind::kExplain)].size())},
        {"feedback_requests", static_cast<double>(
                                  by_kind[static_cast<std::size_t>(Kind::kFeedback)].size())},
        {"model_mdape_pct (served)", mdape},
        {"peak_rss_mb (serving)", rounds.resident_mb},
        {"peak_rss_mb (whole run)", peak_rss_mb()},
    };
  } else {
    const Level plain = open_level(gen, kMixedRate, 0.35 * r, options.seed);
    absorb(result, "fixed rate", plain.stats);
    xfl::obs::clear_trace();
    xfl::obs::set_tracing_enabled(true);
    const Tally before = Tally::now();
    const Level traced =
        open_level(gen, kMixedRate, 0.35 * r, options.seed + 1);
    const Tally delta = Tally::now() - before;
    xfl::obs::set_tracing_enabled(false);
    xfl::obs::clear_trace();
    absorb(result, "fixed rate (traced)", traced.stats);
    const std::initializer_list<Kind> batched = {Kind::kPredict, Kind::kExplain};
    const double client_us = traced.stats.mean_latency_us(batched);
    fill_serve_layers(
        set_ups, data, delta, client_us, traced.stats,
        ratio(client_us, plain.stats.mean_latency_us(batched)),
        stack->journal_dir,
        serve_ledger("open-loop predict+explain latency, mean", client_us,
                     delta),
        result);
  }
  const Tally total = Tally::now() - start;
  const double joins =
      total.count("serve.feedback.count") - total.count("serve.feedback.unmatched");
  const double appends = total.count("retrain.journal.appended");
  result.attempted += 2;
  if (joins != static_cast<double>(pool.feedback_matched))
    result.fail("feedback: monitor joined " + std::to_string(joins) +
                ", generator expected " + std::to_string(pool.feedback_matched));
  if (appends != joins)
    result.fail("journal: " + std::to_string(appends) + " appends for " +
                std::to_string(joins) + " joins");
  return result;
}

}  // namespace perfbench
