#include "retrain/retrainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/number.hpp"
#include "logs/record.hpp"
#include "ml/metrics.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"

namespace xfl::retrain {
namespace {

/// Newest journal records considered per cycle (bounds refit cost).
constexpr std::size_t kMaxRecords = 8192;
/// Recency weighting: the newest training record weighs kMaxWeight,
/// decaying by half every kWeightHalfLife records of age (quantised to
/// integers >= 1, preserving the GBT's integer-hessian invariant).
constexpr std::uint32_t kMaxWeight = 8;
constexpr double kWeightHalfLife = 256.0;

struct RetrainMetrics {
  obs::Counter& cycles = obs::counter("retrain.cycles");
  obs::Counter& refits = obs::counter("retrain.refits");
  obs::Counter& accepted = obs::counter("retrain.accepted");
  obs::Counter& rejected = obs::counter("retrain.rejected");
  obs::Counter& skipped = obs::counter("retrain.skipped");
  obs::Counter& errors = obs::counter("retrain.errors");
  obs::Counter& stale = obs::counter("retrain.stale");
  obs::Counter& journal_drops = obs::counter("retrain.journal.append_errors");
  obs::Gauge& last_version = obs::gauge("retrain.last_version");
  obs::Gauge& candidate_mdape = obs::gauge("retrain.candidate_mdape_pct");
  obs::Gauge& incumbent_mdape = obs::gauge("retrain.incumbent_mdape_pct");
};

RetrainMetrics& retrain_metrics() {
  static RetrainMetrics metrics;
  return metrics;
}

const char* trigger_name(RetrainTrigger trigger) {
  switch (trigger) {
    case RetrainTrigger::kAlarm:
      return "alarm";
    case RetrainTrigger::kInterval:
      return "interval";
    case RetrainTrigger::kManual:
      return "manual";
  }
  return "unknown";
}

std::string edge_name(const logs::EdgeKey& edge) {
  return std::to_string(edge.src) + "->" + std::to_string(edge.dst);
}

/// MdAPE (the paper's accuracy metric) of `predictor` over a holdout
/// slice. Journalled observed rates are finite and > 0, so every sample
/// counts.
double holdout_mdape_pct(const core::TransferPredictor& predictor,
                         std::span<const core::EdgeSample> holdout) {
  std::vector<core::PlannedTransfer> transfers;
  std::vector<features::ContentionFeatures> loads;
  std::vector<double> observed;
  transfers.reserve(holdout.size());
  loads.reserve(holdout.size());
  observed.reserve(holdout.size());
  for (const core::EdgeSample& sample : holdout) {
    transfers.push_back(sample.transfer);
    loads.push_back(sample.load);
    observed.push_back(sample.observed_mbps);
  }
  return ml::mdape(observed, predictor.predict_rates_mbps(transfers, loads));
}

}  // namespace

RetrainWorker::RetrainWorker(serve::ModelHost& host, TrainingJournal& journal,
                             RetrainOptions options)
    : host_(host), journal_(journal), options_(std::move(options)) {
  XFL_EXPECTS(options_.poll_ms > 0);
  XFL_EXPECTS(options_.holdout_fraction > 0.0 &&
              options_.holdout_fraction < 1.0);
  XFL_EXPECTS(options_.min_holdout >= 1);
  XFL_EXPECTS(options_.gbt.valid());
}

RetrainWorker::~RetrainWorker() { stop(); }

void RetrainWorker::start() {
  std::lock_guard lock(mutex_);
  if (started_) return;
  started_ = true;
  stop_requested_ = false;
  status_.running = true;
  thread_ = std::thread([this] { worker_loop(); });
}

void RetrainWorker::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!started_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard lock(mutex_);
  started_ = false;
  status_.running = false;
}

void RetrainWorker::trigger() {
  {
    std::lock_guard lock(mutex_);
    manual_pending_ = true;
  }
  cv_.notify_all();
}

void RetrainWorker::on_alarm() {
  {
    std::lock_guard lock(mutex_);
    alarm_pending_ = true;
  }
  cv_.notify_all();
}

void RetrainWorker::worker_loop() {
  using clock = std::chrono::steady_clock;
  auto last_interval = clock::now();
  // Armed when an alarm cycle was data-starved (nothing refit): the
  // alarm is edge-triggered and will not re-fire while latched, so the
  // worker itself retries until a cycle reaches a real gate decision.
  bool retry_armed = false;
  auto retry_at = clock::now();

  // Runs one cycle and re-arms (or disarms) the starvation retry: a
  // cycle that trained at least one candidate or failed outright made
  // real progress; one that only skipped is still waiting for records.
  const auto cycle = [this, &retry_armed, &retry_at](RetrainTrigger trigger) {
    const RetrainStatus before = status();
    run_cycle(trigger);
    const RetrainStatus after = status();
    const bool starved =
        after.refits == before.refits && after.errors == before.errors;
    retry_armed = starved && options_.alarm_retry_ms > 0 &&
                  trigger == RetrainTrigger::kAlarm;
    if (retry_armed)
      retry_at = clock::now() + std::chrono::milliseconds(options_.alarm_retry_ms);
  };

  for (;;) {
    bool alarm = false;
    bool manual = false;
    {
      std::unique_lock lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms), [this] {
        return stop_requested_ || alarm_pending_ || manual_pending_;
      });
      if (stop_requested_) return;
      alarm = std::exchange(alarm_pending_, false);
      manual = std::exchange(manual_pending_, false);
    }
    // Highest-priority pending trigger wins the cycle attribution; the
    // cycle itself refits everything due regardless of why it ran.
    if (alarm) {
      cycle(RetrainTrigger::kAlarm);
      last_interval = clock::now();
    } else if (manual) {
      cycle(RetrainTrigger::kManual);
      last_interval = clock::now();
    } else if (retry_armed && clock::now() >= retry_at) {
      cycle(RetrainTrigger::kAlarm);
      last_interval = clock::now();
    } else if (options_.interval_ms > 0) {
      const auto now = clock::now();
      if (now - last_interval >=
          std::chrono::milliseconds(options_.interval_ms)) {
        cycle(RetrainTrigger::kInterval);
        last_interval = clock::now();
      }
    }
  }
}

std::size_t RetrainWorker::run_cycle(RetrainTrigger trigger) {
  XFL_SPAN("retrain.cycle");
  retrain_metrics().cycles.add(1);
  {
    std::lock_guard lock(mutex_);
    ++status_.cycles;
    switch (trigger) {
      case RetrainTrigger::kAlarm:
        ++status_.triggers_alarm;
        break;
      case RetrainTrigger::kInterval:
        ++status_.triggers_interval;
        break;
      case RetrainTrigger::kManual:
        ++status_.triggers_manual;
        break;
    }
  }

  std::size_t swaps = 0;
  try {
    // Make the freshest feedback visible to the loader, then read back a
    // bounded window of the newest records.
    journal_.flush();
    TrainingJournal::LoadResult loaded;
    {
      XFL_SPAN("retrain.load");
      loaded =
          TrainingJournal::load(journal_.options().directory, kMaxRecords);
    }

    // Group by edge, dropping records a refit could not train on.
    std::map<logs::EdgeKey, std::vector<core::EdgeSample>> by_edge;
    for (const JournalRecord& record : loaded.records) {
      if (!std::isfinite(record.observed_mbps) || record.observed_mbps <= 0.0)
        continue;
      by_edge[{record.transfer.src, record.transfer.dst}].push_back(
          {record.transfer, record.load, record.observed_mbps});
    }

    // Each candidate is built on the predictor this cycle last published,
    // so every edge it accepts keeps its refit.
    serve::ModelHost::Snapshot incumbent = host_.snapshot();
    XFL_LOG(debug) << "retrain cycle starting"
                   << obs::kv("trigger", trigger_name(trigger))
                   << obs::kv("records", loaded.records.size())
                   << obs::kv("skipped_lines", loaded.lines_skipped)
                   << obs::kv("edges", by_edge.size())
                   << obs::kv("incumbent_version", incumbent.version);

    for (const auto& [edge, samples] : by_edge) {
      if (samples.size() < options_.min_edge_records) {
        retrain_metrics().skipped.add(1);
        std::lock_guard lock(mutex_);
        ++status_.skipped;
        continue;
      }

      // Newest slice is the holdout: the gate judges the candidate on
      // observations neither model trained on, weighted toward "now".
      const std::size_t n = samples.size();
      std::size_t holdout_n = std::max<std::size_t>(
          options_.min_holdout,
          static_cast<std::size_t>(
              std::llround(static_cast<double>(n) * options_.holdout_fraction)));
      if (holdout_n + 2 > n) {
        retrain_metrics().skipped.add(1);
        std::lock_guard lock(mutex_);
        ++status_.skipped;
        continue;
      }
      const std::size_t train_n = n - holdout_n;
      const std::span<const core::EdgeSample> train(samples.data(), train_n);
      const std::span<const core::EdgeSample> holdout(samples.data() + train_n,
                                                      holdout_n);

      // Quantised recency decay: newest training record weighs
      // kMaxWeight, halving every kWeightHalfLife records of age —
      // integer multiplicities keep the GBT's histogram math exact.
      std::vector<std::uint32_t> weights(train_n);
      for (std::size_t i = 0; i < train_n; ++i) {
        const double age = static_cast<double>(train_n - 1 - i);
        const double decayed = static_cast<double>(kMaxWeight) *
                               std::pow(0.5, age / kWeightHalfLife);
        weights[i] = static_cast<std::uint32_t>(
            std::max<long long>(1, std::llround(decayed)));
      }

      double incumbent_mdape = 0.0;
      double candidate_mdape = 0.0;
      std::shared_ptr<core::TransferPredictor> candidate;
      {
        XFL_SPAN("retrain.fit");
        candidate = std::make_shared<core::TransferPredictor>(
            *incumbent.predictor);
        candidate->refit_edge(edge, train, weights, options_.gbt);
      }
      retrain_metrics().refits.add(1);
      {
        XFL_SPAN("retrain.validate");
        incumbent_mdape = holdout_mdape_pct(*incumbent.predictor, holdout);
        candidate_mdape = holdout_mdape_pct(*candidate, holdout);
      }
      retrain_metrics().incumbent_mdape.set(incumbent_mdape);
      retrain_metrics().candidate_mdape.set(candidate_mdape);

      const bool accept =
          candidate_mdape + options_.min_improvement_pct <= incumbent_mdape;
      if (accept) {
        const std::uint64_t version = host_.swap(candidate, incumbent.version);
        if (version == 0) {
          // A reload published since the candidate's base was snapshotted,
          // and the candidate would undo it. The next cycle starts from
          // the reloaded model.
          retrain_metrics().stale.add(1);
          XFL_LOG(warn) << "retrain candidate built on a replaced version"
                        << obs::kv("event", "retrain.stale")
                        << obs::kv("edge", edge_name(edge))
                        << obs::kv("built_on", incumbent.version)
                        << obs::kv("serving", host_.version());
          std::lock_guard lock(mutex_);
          ++status_.refits;
          break;
        }
        incumbent = {candidate, version};
        ++swaps;
        retrain_metrics().accepted.add(1);
        retrain_metrics().last_version.set(static_cast<double>(version));
        XFL_LOG(info) << "retrain candidate accepted"
                      << obs::kv("event", "retrain.accepted")
                      << obs::kv("edge", edge_name(edge))
                      << obs::kv("trigger", trigger_name(trigger))
                      << obs::kv("train", train_n)
                      << obs::kv("holdout", holdout_n)
                      << obs::kv("incumbent_mdape_pct", incumbent_mdape)
                      << obs::kv("candidate_mdape_pct", candidate_mdape)
                      << obs::kv("version", version);
        std::lock_guard lock(mutex_);
        ++status_.refits;
        ++status_.accepted;
        status_.last_version = version;
        status_.last_candidate_mdape_pct = candidate_mdape;
        status_.last_incumbent_mdape_pct = incumbent_mdape;
        status_.last_decision = "accepted";
        status_.last_edge = edge_name(edge);
      } else {
        retrain_metrics().rejected.add(1);
        XFL_LOG(info) << "retrain candidate rejected by validation gate"
                      << obs::kv("event", "retrain.rejected")
                      << obs::kv("edge", edge_name(edge))
                      << obs::kv("trigger", trigger_name(trigger))
                      << obs::kv("train", train_n)
                      << obs::kv("holdout", holdout_n)
                      << obs::kv("incumbent_mdape_pct", incumbent_mdape)
                      << obs::kv("candidate_mdape_pct", candidate_mdape)
                      << obs::kv("min_improvement_pct",
                                 options_.min_improvement_pct);
        std::lock_guard lock(mutex_);
        ++status_.refits;
        ++status_.rejected;
        status_.last_candidate_mdape_pct = candidate_mdape;
        status_.last_incumbent_mdape_pct = incumbent_mdape;
        status_.last_decision = "rejected";
        status_.last_edge = edge_name(edge);
      }
    }
  } catch (const std::exception& e) {
    retrain_metrics().errors.add(1);
    XFL_LOG(error) << "retrain cycle failed"
                   << obs::kv("event", "retrain.error")
                   << obs::kv("trigger", trigger_name(trigger))
                   << obs::kv("what", e.what());
    std::lock_guard lock(mutex_);
    ++status_.errors;
    status_.last_error = e.what();
  }
  return swaps;
}

RetrainStatus RetrainWorker::status() const {
  std::lock_guard lock(mutex_);
  return status_;
}

std::string RetrainWorker::status_json() const {
  const RetrainStatus s = status();
  std::string out = "{\"enabled\":true";
  const auto field = [&out](const char* name, std::uint64_t v) {
    out += ",\"";
    out += name;
    out += "\":";
    append_number(out, v);
  };
  out += ",\"running\":";
  out += s.running ? "true" : "false";
  field("cycles", s.cycles);
  field("triggers_alarm", s.triggers_alarm);
  field("triggers_interval", s.triggers_interval);
  field("triggers_manual", s.triggers_manual);
  field("refits", s.refits);
  field("accepted", s.accepted);
  field("rejected", s.rejected);
  field("skipped", s.skipped);
  field("errors", s.errors);
  field("last_version", s.last_version);
  out += ",\"last_candidate_mdape_pct\":";
  serve::append_json_number(out, s.last_candidate_mdape_pct);
  out += ",\"last_incumbent_mdape_pct\":";
  serve::append_json_number(out, s.last_incumbent_mdape_pct);
  out += ",\"last_decision\":";
  serve::append_json_string(out, s.last_decision);
  out += ",\"last_edge\":";
  serve::append_json_string(out, s.last_edge);
  out += ",\"last_error\":";
  serve::append_json_string(out, s.last_error);
  out += "}";
  return out;
}

RetrainService::RetrainService(serve::PredictionServer& server,
                               TrainingJournal::Options journal_options,
                               RetrainOptions retrain_options)
    : journal_(std::move(journal_options)),
      worker_(server.host(), journal_, std::move(retrain_options)) {
  server.set_feedback_hook(
      [this](const serve::ServeMonitor::FeedbackResult& result,
             std::uint64_t trace_id, double observed_mbps) {
        JournalRecord record;
        record.trace_id = trace_id;
        record.model_version = result.model_version;
        record.transfer = result.transfer;
        record.load = result.load;
        record.predicted_mbps = result.predicted_mbps;
        record.observed_mbps = observed_mbps;
        try {
          journal_.append(record);
        } catch (const std::exception& e) {
          // The serve path must survive a full disk; drop the record and
          // say so — the monitor still has it in memory.
          retrain_metrics().journal_drops.add(1);
          XFL_LOG(error) << "training journal append failed"
                         << obs::kv("what", e.what());
        }
      });
  server.monitor().set_alarm_hook(
      [this](std::uint64_t /*model_version*/, double /*mdape_pct*/,
             bool raised) {
        if (raised) worker_.on_alarm();
      });
  server.set_retrain_status_provider([this] { return worker_.status_json(); });
  worker_.start();
  XFL_LOG(info) << "retrain service started"
                << obs::kv("journal_dir", journal_.options().directory)
                << obs::kv("interval_ms", worker_.options().interval_ms)
                << obs::kv("min_edge_records",
                           worker_.options().min_edge_records);
}

RetrainService::~RetrainService() { worker_.stop(); }

}  // namespace xfl::retrain
