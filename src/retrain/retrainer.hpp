// Background refit loop closing the serve path's drift loop: the drift
// monitor raises an alarm, the RetrainWorker wakes, refits the affected
// per-edge GBT from recent-weighted journal records off the hot path,
// scores the candidate against the incumbent on a held-out slice of the
// newest observations, and — only when the candidate's windowed MdAPE
// actually improves — publishes it through the ModelHost's atomic
// versioned swap. A candidate is a copy of the incumbent (sharing its
// immutable models) with one edge refit, and the incumbent of each edge
// is what the cycle last published, so every edge a cycle accepts keeps
// its refit. The swap publishes only over the version the candidate was
// built on: if an operator reload landed meanwhile, the cycle ends
// (counted in retrain.stale) rather than undo it. A candidate that does
// not beat the incumbent is rejected and the old version keeps serving;
// the gate means a refit can never make the serving model worse on the
// evidence available.
//
// Triggers, in priority order once the worker thread wakes:
//   - alarm:    ServeMonitor drift alarm rising edge (on_alarm()).
//   - manual:   trigger() (tests, future admin command).
//   - interval: every `interval_ms` of wall clock (0 = disabled).
//
// RetrainService is the one-stop wiring used by `xferlearn serve`: it
// owns the journal + worker and installs the three server hooks
// (feedback -> journal append, monitor alarm -> worker nudge,
// retrain-status -> worker status_json). Construct it after the server,
// destroy it after PredictionServer::stop() — the hooks it installed
// must not outlive it while traffic still flows.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "ml/gbt.hpp"
#include "retrain/journal.hpp"
#include "serve/model_host.hpp"
#include "serve/server.hpp"

namespace xfl::retrain {

struct RetrainOptions {
  /// Scheduled refit period in milliseconds; 0 = alarm/manual only.
  std::uint64_t interval_ms = 0;
  /// Worker wakeup granularity (condition-variable wait slice).
  std::uint64_t poll_ms = 200;
  /// The drift alarm is edge-triggered and may rise before the journal
  /// holds min_edge_records (drift_min_samples joins come first). A
  /// data-starved alarm cycle — one that could not refit anything —
  /// re-arms itself and retries this many ms later, until a cycle makes
  /// a real gate decision (accept or reject). 0 disables the retry.
  std::uint64_t alarm_retry_ms = 5000;
  /// Minimum journal records on an edge before it is refit at all.
  std::size_t min_edge_records = 64;
  /// Newest fraction of an edge's records held out for the validation
  /// gate (never trained on), floored at `min_holdout` records.
  double holdout_fraction = 0.25;
  std::size_t min_holdout = 8;
  /// The candidate must beat the incumbent's holdout MdAPE by at least
  /// this many percentage points or the swap is rejected.
  double min_improvement_pct = 1.0;
  /// Training config for candidate edge models.
  ml::GbtConfig gbt;
};

/// Cumulative worker state, exported via status_json() and the
/// retrain-status admin command. All counters are since construction.
struct RetrainStatus {
  bool running = false;
  std::uint64_t cycles = 0;
  std::uint64_t triggers_alarm = 0;
  std::uint64_t triggers_interval = 0;
  std::uint64_t triggers_manual = 0;
  std::uint64_t refits = 0;     ///< Candidate models trained.
  std::uint64_t accepted = 0;   ///< Candidates published via swap().
  std::uint64_t rejected = 0;   ///< Candidates failing the gate.
  std::uint64_t skipped = 0;    ///< Edges with too little data.
  std::uint64_t errors = 0;     ///< Cycles aborted by an exception.
  std::uint64_t last_version = 0;  ///< Version of the last accepted swap.
  double last_candidate_mdape_pct = 0.0;
  double last_incumbent_mdape_pct = 0.0;
  std::string last_decision;  ///< "accepted"/"rejected"/"skipped"/"".
  std::string last_edge;      ///< "src->dst" of the last gated edge.
  std::string last_error;
};

/// Why a refit cycle ran; recorded in status and the cycle log line.
enum class RetrainTrigger { kAlarm, kInterval, kManual };

class RetrainWorker {
 public:
  /// `host` and `journal` must outlive the worker.
  RetrainWorker(serve::ModelHost& host, TrainingJournal& journal,
                RetrainOptions options);
  ~RetrainWorker();

  RetrainWorker(const RetrainWorker&) = delete;
  RetrainWorker& operator=(const RetrainWorker&) = delete;

  /// Start the background thread. Idempotent.
  void start();
  /// Stop and join the background thread. Idempotent; the destructor
  /// calls it too.
  void stop();

  /// Request one refit cycle (manual trigger). Non-blocking.
  void trigger();
  /// The monitor alarm hook target: nudges the worker on a rising edge.
  /// Non-blocking and cheap — safe from the feedback path.
  void on_alarm();

  RetrainStatus status() const;
  /// status() as one JSON object ({"enabled":true,...}), the payload of
  /// the retrain-status admin command.
  std::string status_json() const;

  /// Run one synchronous refit cycle on the caller's thread (the worker
  /// thread calls this; tests call it directly for determinism). Returns
  /// the number of accepted swaps. Never throws: a failed cycle counts
  /// in status().errors and leaves the serving model untouched.
  std::size_t run_cycle(RetrainTrigger trigger);

  const RetrainOptions& options() const { return options_; }

 private:
  void worker_loop();

  serve::ModelHost& host_;
  TrainingJournal& journal_;
  RetrainOptions options_;

  mutable std::mutex mutex_;  ///< Guards status_ + wakeup flags.
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool alarm_pending_ = false;
  bool manual_pending_ = false;
  RetrainStatus status_;
  std::thread thread_;
  bool started_ = false;
};

/// Owns the journal + worker for one PredictionServer and installs the
/// hooks that connect them (see file header). Install order contract:
/// construct after the server (before start()), call server.stop()
/// before destroying the service.
class RetrainService {
 public:
  RetrainService(serve::PredictionServer& server,
                 TrainingJournal::Options journal_options,
                 RetrainOptions retrain_options);
  ~RetrainService();

  RetrainService(const RetrainService&) = delete;
  RetrainService& operator=(const RetrainService&) = delete;

  TrainingJournal& journal() { return journal_; }
  RetrainWorker& worker() { return worker_; }

 private:
  TrainingJournal journal_;
  RetrainWorker worker_;
};

}  // namespace xfl::retrain
