#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/contracts.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace xfl::serve {

namespace {

struct BatcherMetrics {
  obs::Counter& batches = obs::counter("serve.batch.count");
  obs::Counter& rows = obs::counter("serve.batch.rows");
  obs::Counter& explain_rows = obs::counter("serve.batch.explain_rows");
  obs::Counter& timeouts = obs::counter("serve.request.timeout");
  obs::Counter& failures = obs::counter("serve.batch.failures");
  obs::Counter& callback_errors = obs::counter("serve.batch.callback_errors");
  obs::Counter& steals = obs::counter("serve.batch.steals");
  obs::Gauge& depth = obs::gauge("serve.queue.depth");
  obs::Histogram& latency =
      obs::histogram("serve.batch.latency_us", obs::default_latency_bounds_us());
  obs::Histogram& size = obs::histogram(
      "serve.batch.size",
      std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256});
  // Stage timers, fine log-spaced buckets so exported quantiles are
  // meaningful: per-request queue wait, then the three batch stages. All
  // are timed in nanoseconds and recorded in microseconds: an assembly
  // takes about 2 us, so whole-microsecond ticks would misstate it.
  obs::Histogram& queue_wait = obs::histogram(
      "serve.request.queue_wait_us", obs::quantile_latency_bounds_us());
  obs::Histogram& assemble = obs::histogram(
      "serve.batch.assemble_us", obs::quantile_latency_bounds_us());
  obs::Histogram& predict = obs::histogram(
      "serve.batch.predict_us", obs::quantile_latency_bounds_us());
  obs::Histogram& respond = obs::histogram(
      "serve.batch.respond_us", obs::quantile_latency_bounds_us());
};

BatcherMetrics& batcher_metrics() {
  static BatcherMetrics metrics;
  return metrics;
}

/// Fractional microseconds elapsed since `start_ns`.
double us_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) / 1000.0;
}

void deliver(const BatchItem& item, const PredictOutcome& outcome) {
  if (!item.done) return;
  try {
    item.done(item, outcome);
  } catch (const std::exception& error) {
    // A callback failure (e.g. a dead socket) must not take the batch
    // worker down with it.
    batcher_metrics().callback_errors.add(1);
    XFL_LOG(warn) << "serve batch callback threw"
                  << obs::kv("what", error.what());
  }
}

}  // namespace

MicroBatcher::MicroBatcher(ModelHost& host, Options options)
    : host_(host), options_(options) {
  XFL_EXPECTS(options_.max_batch >= 1 && options_.queue_capacity >= 1 &&
              options_.shards >= 1);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
}

MicroBatcher::~MicroBatcher() { drain_and_stop(); }

std::size_t MicroBatcher::submit_burst(std::vector<BatchItem>& items,
                                       std::size_t shard_index,
                                       Admission& status) {
  status = Admission::kAccepted;
  if (items.empty()) return 0;
  Shard& shard = *shards_[shard_index % shards_.size()];
  std::size_t admitted = 0;
  bool imbalance = false;
  {
    std::lock_guard lock(shard.mutex);
    if (stopping_.load(std::memory_order_relaxed)) {
      status = Admission::kShuttingDown;
      return 0;
    }
    const std::size_t room =
        options_.queue_capacity -
        std::min(options_.queue_capacity, shard.queue.size());
    admitted = std::min(room, items.size());
    const std::uint64_t now_ns = obs::monotonic_ns();
    for (std::size_t i = 0; i < admitted; ++i) {
      items[i].enqueue_ns = now_ns;
      shard.queue.push_back(std::move(items[i]));
    }
    shard.size.store(shard.queue.size(), std::memory_order_relaxed);
    imbalance = shard.queue.size() > options_.max_batch;
    if (admitted != 0)
      batcher_metrics().depth.set(static_cast<double>(
          total_depth_.fetch_add(admitted, std::memory_order_relaxed) +
          admitted));
    if (admitted != items.size()) status = Admission::kOverloaded;
  }
  if (admitted != 0) shard.cv.notify_one();
  // A backlog deeper than one batch is the steal signal: wake every idle
  // sibling so it can take half. Cheap — only fired past the threshold.
  if (imbalance && shards_.size() > 1) notify_all_shards();
  return admitted;
}

void MicroBatcher::notify_all_shards() {
  for (auto& shard : shards_) {
    // Taking the mutex (and dropping it) before notify pairs the flag
    // write with the predicate check — a worker mid-check cannot miss it.
    { std::lock_guard lock(shard->mutex); }
    shard->cv.notify_all();
  }
}

void MicroBatcher::pause() {
  paused_.store(true);
  notify_all_shards();
}

void MicroBatcher::resume() {
  paused_.store(false);
  notify_all_shards();
}

void MicroBatcher::drain_and_stop() {
  stopping_.store(true);
  paused_.store(false);  // Drain must terminate even if someone paused us.
  notify_all_shards();
  // A second mutex serialises concurrent stop callers around the joins.
  std::lock_guard stop_lock(stop_mutex_);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

std::size_t MicroBatcher::queue_depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->queue.size();
  }
  return total;
}

bool MicroBatcher::try_steal(std::size_t thief,
                             std::vector<BatchItem>& batch) {
  // Rank siblings by their mirrored sizes without locking; lock only the
  // winner. The race (size changed under us) is benign — stealing is an
  // opportunistic rebalance, not a correctness mechanism.
  std::size_t victim = thief;
  std::size_t deepest = 1;  // Require >= 2 queued: one item is not imbalance.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == thief) continue;
    const std::size_t size = shards_[i]->size.load(std::memory_order_relaxed);
    if (size > deepest) {
      deepest = size;
      victim = i;
    }
  }
  if (victim == thief) return false;
  Shard& shard = *shards_[victim];
  std::lock_guard lock(shard.mutex);
  if (shard.queue.size() < 2) return false;
  // Take the older half from the front: the thief inherits the requests
  // that have waited longest, which is exactly what deadline fairness
  // wants from a rebalance.
  const std::size_t take =
      std::min(options_.max_batch, shard.queue.size() / 2);
  batch.reserve(batch.size() + take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(shard.queue.front()));
    shard.queue.pop_front();
  }
  shard.size.store(shard.queue.size(), std::memory_order_relaxed);
  steals_.fetch_add(take, std::memory_order_relaxed);
  batcher_metrics().steals.add(take);
  return true;
}

void MicroBatcher::worker_loop(std::size_t index) {
  Shard& own = *shards_[index];
  std::vector<BatchItem> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock lock(own.mutex);
      if (!paused_.load(std::memory_order_relaxed) && !own.queue.empty()) {
        const std::size_t take =
            std::min(options_.max_batch, own.queue.size());
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(own.queue.front()));
          own.queue.pop_front();
        }
        own.size.store(own.queue.size(), std::memory_order_relaxed);
      }
    }
    // Empty-handed and idle: rebalance from the deepest sibling. Never
    // during drain (owners answer their own queues, so shutdown has a
    // clean per-shard invariant) and never while paused.
    if (batch.empty() && shards_.size() > 1 &&
        !paused_.load(std::memory_order_relaxed) &&
        !stopping_.load(std::memory_order_relaxed))
      try_steal(index, batch);

    if (!batch.empty()) {
      batcher_metrics().depth.set(static_cast<double>(
          total_depth_.fetch_sub(batch.size(), std::memory_order_relaxed) -
          batch.size()));
      process(batch);
      continue;
    }

    std::unique_lock lock(own.mutex);
    if (stopping_.load(std::memory_order_relaxed)) {
      if (own.queue.empty()) return;
      continue;  // Refilled between unlock and here; drain it first.
    }
    const auto runnable = [this, &own] {
      return stopping_.load(std::memory_order_relaxed) ||
             (!paused_.load(std::memory_order_relaxed) &&
              !own.queue.empty());
    };
    if (shards_.size() > 1) {
      // Multi-shard workers also wake on a timer so a steal opportunity
      // that raced the imbalance notification is picked up within 50ms.
      own.cv.wait_for(lock, std::chrono::milliseconds(50), runnable);
    } else {
      own.cv.wait(lock, runnable);
    }
  }
}

void MicroBatcher::process(std::vector<BatchItem>& batch) {
  XFL_SPAN("serve.batch");
  auto& metrics = batcher_metrics();
  const std::uint64_t start_ns = obs::monotonic_ns();

  // Cork the batch: every deliver() below (timeouts included) runs
  // between hook(true) and hook(false), so the server can coalesce all
  // of a connection's replies into one flush. The guard covers the
  // early-return paths.
  struct BatchHookGuard {
    const std::function<void(bool)>& hook;
    explicit BatchHookGuard(const std::function<void(bool)>& hook)
        : hook(hook) {
      if (hook) hook(true);
    }
    ~BatchHookGuard() {
      if (hook) hook(false);
    }
  } hook_guard(options_.batch_hook);

  // Stage 1: assembly — per-request queue wait, deadline triage, and
  // packing the surviving rows into the flat-kernel input vectors: one
  // pass splits them into the plain and the explain partition, each in
  // live order.
  const ModelHost::Snapshot snapshot = host_.snapshot();
  std::vector<const BatchItem*> live;
  struct Partition {
    std::vector<core::PlannedTransfer> transfers;
    std::vector<features::ContentionFeatures> loads;
  } plain, explain;
  {
    XFL_SPAN("serve.batch.assemble");
    live.reserve(batch.size());
    plain.transfers.reserve(batch.size());
    plain.loads.reserve(batch.size());
    for (const auto& item : batch) {
      if (item.enqueue_ns != 0)
        metrics.queue_wait.record(
            static_cast<double>(start_ns - item.enqueue_ns) / 1000.0);
      // Items whose deadline passed while queued time out here — the cost
      // of predicting them would only push every later request further
      // past its own deadline.
      if (item.deadline_ns != 0 && start_ns > item.deadline_ns) {
        PredictOutcome timeout;
        timeout.error = kErrTimeout;
        timeout.message = "deadline expired before batch execution";
        metrics.timeouts.add(1);
        deliver(item, timeout);
      } else {
        live.push_back(&item);
        Partition& part = item.explain ? explain : plain;
        part.transfers.push_back(item.transfer);
        part.loads.push_back(item.load);
      }
    }
    metrics.assemble.record(us_since(start_ns));
  }
  if (live.empty()) return;

  // Stage 2: one flat-kernel call per non-empty partition. Explain rows
  // go through the attribution kernel (whose served rates are
  // bit-identical), so a batch mixing both costs one extra kernel call,
  // not one per row.
  const std::uint64_t predict_start_ns = obs::monotonic_ns();
  std::vector<double> rates;
  std::vector<core::RateExplanation> explanations;
  try {
    XFL_SPAN("serve.batch.predict");
    if (!plain.transfers.empty())
      rates = snapshot.predictor->predict_rates_mbps(plain.transfers,
                                                     plain.loads);
    if (!explain.transfers.empty()) {
      explanations = snapshot.predictor->explain_rates_mbps(
          explain.transfers, explain.loads);
      metrics.explain_rows.add(explanations.size());
    }
    metrics.predict.record(us_since(predict_start_ns));
  } catch (const std::exception& error) {
    metrics.failures.add(1);
    XFL_LOG(error) << "serve batch predict failed"
                   << obs::kv("rows", live.size())
                   << obs::kv("what", error.what());
    PredictOutcome failed;
    failed.error = kErrInternal;
    failed.message = error.what();
    for (const BatchItem* item : live) deliver(*item, failed);
    return;
  }

  // Batch accounting is committed BEFORE the replies go out so a client
  // that reads its answer and immediately asks for `stats` sees this
  // batch's rows counted (only the whole-batch latency, which includes
  // the respond stage itself, is recorded after).
  metrics.batches.add(1);
  metrics.rows.add(live.size());
  metrics.size.record(static_cast<double>(live.size()));

  // Stage 3: serialise + write each reply (runs the done callbacks).
  {
    XFL_SPAN("serve.batch.respond");
    const std::uint64_t respond_start_ns = obs::monotonic_ns();
    // Both partitions are in live order, so each drains front to back.
    std::size_t next_rate = 0;
    std::size_t next_explanation = 0;
    for (const BatchItem* item : live) {
      PredictOutcome outcome;
      outcome.ok = true;
      outcome.edge_model = snapshot.predictor->has_edge_model(
          {item->transfer.src, item->transfer.dst});
      outcome.model_version = snapshot.version;
      if (item->explain) {
        outcome.explained = true;
        outcome.explanation = std::move(explanations[next_explanation++]);
        outcome.rate_mbps = outcome.explanation.rate_mbps;
      } else {
        outcome.rate_mbps = rates[next_rate++];
      }
      deliver(*item, outcome);
    }
    metrics.respond.record(us_since(respond_start_ns));
  }

  metrics.latency.record(us_since(start_ns));
}

}  // namespace xfl::serve
