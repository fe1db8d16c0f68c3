#include "features/contention.hpp"

#include <algorithm>
#include <set>
#include <thread>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xfl::features {

namespace {

/// Sweep-level observability: one span and a handful of adds per call,
/// nothing inside the per-record interval sweep itself.
struct SweepMetrics {
  obs::Counter& sweeps = obs::counter("contention.sweeps");
  obs::Counter& records = obs::counter("contention.records");
  obs::Histogram& sweep_us = obs::histogram("contention.sweep_us");
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics metrics;
  return metrics;
}

/// Overlap time O(i, k) of two records (Eq. 2's helper).
double overlap_s(const logs::TransferRecord& a, const logs::TransferRecord& b) {
  return std::max(0.0, std::min(a.end_s, b.end_s) -
                           std::max(a.start_s, b.start_s));
}

/// Eq. 2's direction rules: add competitor `other`'s load at endpoint
/// `at`, scaled by `weight`, to the features of a transfer on `edge`.
void add_competitor(const logs::EdgeKey& edge,
                    const logs::TransferRecord& other, endpoint::EndpointId at,
                    double weight, ContentionFeatures& features) {
  const double rate = other.rate_Bps();
  const double instances = other.effective_processes();
  const double streams = other.effective_streams();

  const bool self_src_here = edge.src == at;
  const bool self_dst_here = edge.dst == at;
  const bool other_out_here = other.src == at;
  const bool other_in_here = other.dst == at;

  if (self_src_here) {
    // G aggregates competitors in *either* direction at the endpoint
    // (the paper: "all transfers except k that have src_k as their source
    // or destination"); K and S are split by flow direction.
    features.g_src += weight * instances;
    if (other_out_here) {
      features.k_sout += weight * rate;
      features.s_sout += weight * streams;
    }
    if (other_in_here) {
      features.k_sin += weight * rate;
      features.s_sin += weight * streams;
    }
  }
  if (self_dst_here) {
    features.g_dst += weight * instances;
    if (other_out_here) {
      features.k_dout += weight * rate;
      features.s_dout += weight * streams;
    }
    if (other_in_here) {
      features.k_din += weight * rate;
      features.s_din += weight * streams;
    }
  }
}

/// Accumulate the contribution of competitor `other` to `self`'s features
/// at endpoint `at`, weighted by the overlap fraction of self's duration.
void accumulate(const logs::TransferRecord& self,
                const logs::TransferRecord& other, endpoint::EndpointId at,
                ContentionFeatures& features) {
  const double weight = overlap_s(self, other) / self.duration_s();
  if (weight <= 0.0) return;
  add_competitor(self.edge(), other, at, weight, features);
}

bool in_flight(const logs::TransferRecord& record, double now_s) {
  return record.start_s <= now_s && now_s < record.end_s;
}

/// Field-wise accumulation, used when merging per-endpoint buffers.
void add_features(ContentionFeatures& into, const ContentionFeatures& from) {
  into.k_sout += from.k_sout;
  into.k_sin += from.k_sin;
  into.k_dout += from.k_dout;
  into.k_din += from.k_din;
  into.g_src += from.g_src;
  into.g_dst += from.g_dst;
  into.s_sout += from.s_sout;
  into.s_sin += from.s_sin;
  into.s_dout += from.s_dout;
  into.s_din += from.s_din;
}

/// One endpoint's interval-overlap sweep, written into `local` (parallel to
/// `indices`). Each overlapping pair is visited exactly once (when the
/// later-starting member arrives) and contributes in both directions.
void sweep_endpoint(const std::vector<logs::TransferRecord>& records,
                    endpoint::EndpointId endpoint_id,
                    const std::vector<std::size_t>& indices,
                    std::vector<ContentionFeatures>& local) {
  // Active set ordered by end time; the global record index is the
  // tie-break so the accumulation order is a pure function of the log.
  struct ActiveEntry {
    double end_s;
    std::size_t index;  ///< Into records.
    std::size_t pos;    ///< Into indices/local.
    bool operator<(const ActiveEntry& other) const {
      if (end_s != other.end_s) return end_s < other.end_s;
      return index < other.index;
    }
  };
  std::set<ActiveEntry> active;
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    const std::size_t k = indices[pos];
    const auto& self = records[k];
    // Retire competitors that ended at or before self's start
    // (zero overlap contributes nothing).
    while (!active.empty() && active.begin()->end_s <= self.start_s)
      active.erase(active.begin());
    for (const auto& entry : active) {
      const auto& other = records[entry.index];
      accumulate(self, other, endpoint_id, local[pos]);
      accumulate(other, self, endpoint_id, local[entry.pos]);
    }
    active.insert({self.end_s, k, pos});
  }
}

}  // namespace

std::vector<ContentionFeatures> compute_contention(const logs::LogStore& log,
                                                   int threads) {
  XFL_EXPECTS(threads >= 0);
  XFL_SPAN("features.contention.sweep");
  auto& metrics = sweep_metrics();
  const std::uint64_t start_us = obs::monotonic_us();
  std::vector<ContentionFeatures> features(log.size());
  const auto& records = log.records();

  // Distinct endpoints present in the log, ascending (fixes the merge order).
  std::set<endpoint::EndpointId> endpoint_set;
  for (const auto& record : records) {
    endpoint_set.insert(record.src);
    endpoint_set.insert(record.dst);
  }
  const std::vector<endpoint::EndpointId> endpoints(endpoint_set.begin(),
                                                    endpoint_set.end());

  // Phase 1: independent per-endpoint sweeps into per-endpoint buffers.
  // A record appears under both its src and dst endpoint, so sweeping
  // straight into `features` would race across endpoints.
  std::vector<std::vector<std::size_t>> indices(endpoints.size());
  std::vector<std::vector<ContentionFeatures>> locals(endpoints.size());
  auto sweep_job = [&](std::size_t e) {
    indices[e] = log.endpoint_transfers(endpoints[e]);
    locals[e].assign(indices[e].size(), ContentionFeatures{});
    sweep_endpoint(records, endpoints[e], indices[e], locals[e]);
  };
  std::size_t workers = threads > 0 ? static_cast<std::size_t>(threads)
                                    : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  if (workers > 1 && endpoints.size() > 1) {
    ThreadPool pool(std::min(workers, endpoints.size()));
    pool.parallel_for(endpoints.size(), sweep_job);
  } else {
    for (std::size_t e = 0; e < endpoints.size(); ++e) sweep_job(e);
  }

  // Phase 2: merge in ascending endpoint order. Each record receives its
  // src-side and dst-side sums in a fixed order, so the result does not
  // depend on the thread count.
  for (std::size_t e = 0; e < endpoints.size(); ++e)
    for (std::size_t pos = 0; pos < indices[e].size(); ++pos)
      add_features(features[indices[e][pos]], locals[e][pos]);

  const std::uint64_t elapsed_us = obs::monotonic_us() - start_us;
  metrics.sweeps.add(1);
  metrics.records.add(records.size());
  metrics.sweep_us.record(static_cast<double>(elapsed_us));
  XFL_LOG(debug) << "contention sweep complete"
                 << obs::kv("records", records.size())
                 << obs::kv("endpoints", endpoints.size())
                 << obs::kv("elapsed_us", elapsed_us);
  return features;
}

ContentionFeatures snapshot_load(const logs::LogStore& log,
                                 const logs::EdgeKey& edge, double now_s) {
  ContentionFeatures features;
  const auto add_in_flight = [&](endpoint::EndpointId at) {
    for (const auto i : log.endpoint_transfers(at))
      if (in_flight(log[i], now_s))
        add_competitor(edge, log[i], at, 1.0, features);
  };
  add_in_flight(edge.src);
  if (edge.dst != edge.src) add_in_flight(edge.dst);
  return features;
}

std::size_t active_transfers_at(const logs::LogStore& log,
                                endpoint::EndpointId id, double now_s) {
  std::size_t active = 0;
  for (const auto i : log.endpoint_transfers(id))
    if (in_flight(log[i], now_s)) ++active;
  return active;
}

double relative_external_load(const logs::TransferRecord& record,
                              const ContentionFeatures& features) {
  const double rate = record.rate_Bps();
  XFL_EXPECTS(rate >= 0.0);
  const double source_side =
      features.k_sout > 0.0 ? features.k_sout / (rate + features.k_sout) : 0.0;
  const double destination_side =
      features.k_din > 0.0 ? features.k_din / (rate + features.k_din) : 0.0;
  return std::max(source_side, destination_side);
}

}  // namespace xfl::features
