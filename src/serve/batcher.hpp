// Sharded micro-batching stage between the event loop and the predictor.
// The server submits individual requests into one of N shards — each
// shard is a bounded queue owned by exactly one worker thread, so the
// hot path has no shared queue and no contended lock (the MAGPIE
// per-worker-state idiom). Each worker drains up to max_batch of its own
// items at a time and answers the whole batch with one
// TransferPredictor::predict_rates_mbps call, so the flattened lockstep
// kernel — built for exactly this serving path — is exercised per batch
// instead of once per request.
//
// Work stealing happens only on imbalance: a worker that finds its own
// queue empty takes half of the deepest sibling's backlog. Admission
// never spills — a full shard rejects even if siblings have room, which
// keeps per-connection admission deterministic (a connection is pinned
// to one shard) and bounds every queue independently.
//
// Admission control happens at submit_burst(): the queue is bounded per
// shard, and a full queue (or a draining batcher) is an immediate
// structured rejection on the caller's thread, never unbounded latency.
// Each item may carry an absolute deadline; items whose deadline passed
// while queued are answered with a timeout error instead of being
// predicted.
//
// Completion callbacks run on a worker thread with no batcher lock held,
// so they may submit follow-up work or write to sockets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.hpp"
#include "features/contention.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"

namespace xfl::serve {

/// One queued request.
struct BatchItem {
  core::PlannedTransfer transfer;
  features::ContentionFeatures load;
  /// Route through the attribution kernel; the outcome carries the
  /// explanation. Explain rows ride the same queue and batch as plain
  /// predicts — they are partitioned only at the kernel call.
  bool explain = false;
  /// Server-assigned trace id; propagated through the queue into the
  /// worker batch so the response and stage timings stay correlatable.
  std::uint64_t trace_id = 0;
  /// obs::monotonic_ns() when the frame was received (set by the server;
  /// the queue-wait histogram measures from submit, this one anchors the
  /// end-to-end server_ms figure).
  std::uint64_t received_ns = 0;
  /// Absolute obs::monotonic_ns() deadline; 0 = none. Checked when the
  /// batch worker picks the item up.
  std::uint64_t deadline_ns = 0;
  /// obs::monotonic_ns() at admission; queue wait is measured from here.
  std::uint64_t enqueue_ns = 0;
  /// Called once with this item and its outcome, so the callback reads
  /// the trace id, receipt time, transfer and load from the item instead
  /// of capturing copies.
  std::function<void(const BatchItem&, const PredictOutcome&)> done;
};

class MicroBatcher {
 public:
  struct Options {
    std::size_t max_batch = 64;        ///< Rows coalesced per predict call.
    std::size_t queue_capacity = 1024; ///< Admission bound, per shard.
    /// Shard (worker) count. Every shard owns one queue and one worker;
    /// single-shard batchers behave exactly like the pre-shard design.
    std::size_t shards = 1;
    /// Called on the worker thread around every batch's callback runs:
    /// hook(true) before the first `done` of a batch, hook(false) after
    /// the last (including early exits). The server always installs it
    /// to cork socket writes for the whole batch, so every predict,
    /// explain and timeout reply is flushed once per connection per
    /// batch. May be empty.
    std::function<void(bool)> batch_hook{};
  };

  enum class Admission { kAccepted, kOverloaded, kShuttingDown };

  MicroBatcher(ModelHost& host, Options options);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueue a burst on `shard` (wrapped modulo the shard count) under a
  /// single lock + notify (the event loop submits every frame a readiness
  /// round decoded in one call). Admits a prefix: returns how many items
  /// were moved off the front of `items`; the remainder is left untouched
  /// and `status` names why admission stopped (kAccepted when everything
  /// fit). An admitted item's `done` will be called exactly once (possibly
  /// with a timeout outcome); a rejected item's never is, so the caller
  /// answers instead.
  std::size_t submit_burst(std::vector<BatchItem>& items, std::size_t shard,
                           Admission& status);

  /// Halt batch execution on every shard while keeping admission open
  /// (queued items wait; ops lever and the deterministic
  /// overload/deadline test hook).
  void pause();
  void resume();

  /// Process everything already admitted on every shard, then stop the
  /// workers. Later bursts are refused with kShuttingDown. Clears any
  /// pause so drain always terminates. Idempotent.
  void drain_and_stop();

  /// Total queued items across all shards.
  std::size_t queue_depth() const;

  std::size_t shard_count() const { return shards_.size(); }
  /// Items moved between shards by work stealing since construction.
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  /// One queue + its owning worker. `size` mirrors queue.size() so the
  /// steal scan can rank shards without taking every lock.
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<BatchItem> queue;
    std::atomic<std::size_t> size{0};
    std::thread worker;
  };

  void worker_loop(std::size_t index);
  /// Move up to half of the deepest sibling's backlog into `batch`.
  bool try_steal(std::size_t thief, std::vector<BatchItem>& batch);
  void process(std::vector<BatchItem>& batch);
  void notify_all_shards();

  ModelHost& host_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Lifecycle flags are atomics read in cv predicates; every setter
  // takes each shard mutex around its notify so wakeups are never lost.
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> total_depth_{0};
  std::mutex stop_mutex_;  ///< Serialises drain_and_stop() joins.
};

}  // namespace xfl::serve
