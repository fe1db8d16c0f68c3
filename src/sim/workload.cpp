#include "sim/workload.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/contracts.hpp"

namespace xfl::sim {

namespace {

// Cap on files per transfer (see make_request: keeps the joint
// size/file-size tail physically sensible).
constexpr std::uint64_t kMaxFilesPerTransfer = 50000;
// Probability that a transfer is a tiny single-file "test ping"
// (1 B .. 1 MB). Production logs contain them.
constexpr double kTinyTransferProb = 0.01;

const EdgeProfile& pick_edge(const std::vector<EdgeProfile>& edges,
                             double total_weight, Rng& rng) {
  double target = rng.uniform() * total_weight;
  for (const auto& edge : edges) {
    target -= edge.weight;
    if (target <= 0.0) return edge;
  }
  return edges.back();
}

TransferRequest make_request(const EdgeProfile& edge, double submit_s,
                             std::uint64_t id, Rng& rng) {
  TransferRequest req;
  req.id = id;
  req.src = edge.src;
  req.dst = edge.dst;
  req.submit_s = submit_s;

  if (rng.bernoulli(kTinyTransferProb)) {
    // Connectivity test: a single file of 1 B .. 1 MB.
    req.bytes = std::max(kMinTransferBytes,
                         std::pow(10.0, rng.uniform(0.0, 6.0)));
    req.files = 1;
    req.dirs = 1;
    req.params.concurrency = edge.default_concurrency;
    req.params.parallelism = edge.default_parallelism;
    return req;
  }
  req.bytes = std::clamp(rng.lognormal(edge.log_mean_bytes, edge.log_sigma_bytes),
                         kMinTransferBytes, kMaxTransferBytes);
  // Mean file size: independent lognormal, but kept consistent with the
  // transfer size. The floor caps the file count at kMaxFilesPerTransfer
  // (and at 100 KB files) - without it, the joint tail of the two
  // distributions produces million-file transfers whose per-file overhead
  // makes them effectively unfinishable, which no real user submits at
  // scale (the log study averages ~1.5k files per transfer).
  const double floor_file =
      std::max(std::min(1.0e5, req.bytes),
               req.bytes / static_cast<double>(kMaxFilesPerTransfer));
  const double mean_file =
      std::clamp(rng.lognormal(edge.log_mean_file, edge.log_sigma_file),
                 floor_file, req.bytes);
  req.files = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(req.bytes / mean_file)));
  const double files_per_dir = rng.uniform(20.0, 200.0);
  req.dirs = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(req.files) / files_per_dir));

  req.params.concurrency = edge.default_concurrency;
  req.params.parallelism = edge.default_parallelism;
  if (rng.bernoulli(edge.tunable_deviation_prob)) {
    static constexpr std::uint32_t kChoicesC[] = {1, 2, 4, 8, 16};
    static constexpr std::uint32_t kChoicesP[] = {1, 2, 4, 8};
    req.params.concurrency = kChoicesC[rng.uniform_int(0, 4)];
    req.params.parallelism = kChoicesP[rng.uniform_int(0, 3)];
  }
  req.params.integrity_check = !rng.bernoulli(0.05);  // Default on (§2).
  return req;
}

}  // namespace

std::size_t temper_offered_load(std::vector<EdgeProfile>& profiles,
                                const endpoint::EndpointCatalog& endpoints,
                                const WorkloadConfig& config,
                                double max_utilisation) {
  XFL_EXPECTS(max_utilisation > 0.0 && max_utilisation <= 1.0);
  double total_weight = 0.0;
  for (const auto& profile : profiles) total_weight += profile.weight;
  if (total_weight <= 0.0) return 0;
  const double total_transfers = config.arrivals_per_s * config.duration_s *
                                 config.session_mean_transfers;

  std::set<std::size_t> tempered;
  // Proportional scale-down, iterated because one edge can touch two
  // saturated endpoints; converges geometrically.
  for (int iteration = 0; iteration < 6; ++iteration) {
    std::vector<double> offered_out(endpoints.size(), 0.0);
    std::vector<double> offered_in(endpoints.size(), 0.0);
    std::vector<double> mean_rate(profiles.size(), 0.0);
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const auto& profile = profiles[p];
      // Mean of the (clamped) lognormal; the clamp only tightens, so this
      // is a conservative (over-)estimate.
      const double mean_bytes =
          std::exp(profile.log_mean_bytes +
                   0.5 * profile.log_sigma_bytes * profile.log_sigma_bytes);
      mean_rate[p] = profile.weight / total_weight * total_transfers *
                     mean_bytes / config.duration_s;
      offered_out[profile.src] += mean_rate[p];
      offered_in[profile.dst] += mean_rate[p];
    }
    bool any_scaled = false;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      auto& profile = profiles[p];
      const auto& src = endpoints[profile.src];
      const auto& dst = endpoints[profile.dst];
      const double out_budget =
          max_utilisation * std::min(src.disk.read_Bps, src.nic_out_Bps);
      const double in_budget =
          max_utilisation * std::min(dst.disk.write_Bps, dst.nic_in_Bps);
      double factor = 1.0;
      if (offered_out[profile.src] > out_budget)
        factor = std::min(factor, out_budget / offered_out[profile.src]);
      if (offered_in[profile.dst] > in_budget)
        factor = std::min(factor, in_budget / offered_in[profile.dst]);
      if (factor < 0.999) {
        profile.log_mean_bytes += std::log(factor);
        tempered.insert(p);
        any_scaled = true;
      }
    }
    if (!any_scaled) break;
  }
  return tempered.size();
}

std::vector<TransferRequest> generate_workload(
    const std::vector<EdgeProfile>& edges, const WorkloadConfig& config,
    Rng& rng) {
  XFL_EXPECTS(!edges.empty());
  XFL_EXPECTS(config.duration_s > 0.0 && config.arrivals_per_s > 0.0);
  double total_weight = 0.0;
  for (const auto& edge : edges) {
    XFL_EXPECTS(edge.weight >= 0.0);
    total_weight += edge.weight;
  }
  XFL_EXPECTS(total_weight > 0.0);

  std::vector<TransferRequest> requests;
  std::uint64_t next_id = config.first_id;
  double session_start = 0.0;
  while (true) {
    session_start += rng.exponential(config.arrivals_per_s);
    if (session_start >= config.duration_s) break;
    // Sessions usually stay on one edge: a user moving one dataset.
    const EdgeProfile& edge = pick_edge(edges, total_weight, rng);
    const auto session_size = static_cast<std::uint64_t>(
        1 + rng.poisson(std::max(0.0, config.session_mean_transfers - 1.0)));
    double submit = session_start;
    for (std::uint64_t t = 0; t < session_size; ++t) {
      requests.push_back(make_request(edge, submit, next_id++, rng));
      submit += rng.exponential(1.0 / config.session_gap_s);
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const TransferRequest& a, const TransferRequest& b) {
              if (a.submit_s != b.submit_s) return a.submit_s < b.submit_s;
              return a.id < b.id;
            });
  return requests;
}

}  // namespace xfl::sim
