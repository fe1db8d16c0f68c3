// Synthetic Globus-like workload generation.
//
// The generator reproduces the statistical texture of the log study:
//   * a few heavily used edges carry most transfers (per-edge weights);
//   * transfer sizes and file sizes are log-normal, spanning bytes to
//     hundreds of terabytes (Fig. 6 spans 1 B .. ~1 PB);
//   * arrivals are bursty: users submit sessions of several transfers;
//   * tunable parameters C and P are near-constant per edge (the paper
//     eliminates them for low variance in Fig. 9) with rare deviations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "endpoint/endpoint.hpp"
#include "sim/transfer.hpp"

namespace xfl::sim {

/// Workload description of one directed edge.
struct EdgeProfile {
  endpoint::EndpointId src = 0;
  endpoint::EndpointId dst = 0;
  double weight = 1.0;           ///< Relative share of all transfers.
  double log_mean_bytes = 24.0;  ///< ln-scale mean of total size (~27 GB).
  double log_sigma_bytes = 2.0;
  double log_mean_file = 20.0;   ///< ln-scale mean of mean file size (~0.5 GB).
  double log_sigma_file = 1.8;
  std::uint32_t default_concurrency = 4;   ///< Site-default C.
  std::uint32_t default_parallelism = 4;   ///< Site-default P.
  /// Probability a transfer deviates from the edge defaults (low, so that
  /// C/P have low variance per edge as in the paper, which eliminates both
  /// on every edge).
  double tunable_deviation_prob = 0.01;
};

/// Global workload knobs.
struct WorkloadConfig {
  double duration_s = 10.0 * 86400.0;  ///< Submission window.
  double arrivals_per_s = 0.05;        ///< Session arrival rate (Poisson).
  double session_mean_transfers = 3.0; ///< Mean transfers per session.
  double session_gap_s = 90.0;         ///< Mean gap between session members.
  std::uint64_t first_id = 1;          ///< Id of the first generated transfer.
};

/// Bounds on a generated transfer's size: one byte (Fig. 6's size axis
/// starts there) up to a 200 TB ceiling.
inline constexpr double kMinTransferBytes = 1.0;
inline constexpr double kMaxTransferBytes = 2.0e14;

/// Generate a time-ordered transfer request stream over the given edges.
/// Requires at least one profile with positive weight. Deterministic in rng.
std::vector<TransferRequest> generate_workload(
    const std::vector<EdgeProfile>& edges, const WorkloadConfig& config,
    Rng& rng);

/// Stability guard: scale down per-edge transfer sizes until no endpoint's
/// *offered* byte-rate (expected bytes submitted per second, in or out)
/// exceeds `max_utilisation` of the slower of its disk and NIC on that
/// side. An open-loop arrival process whose offered load exceeds service
/// capacity has no steady state - queues and simulation cost diverge -
/// and real user populations adapt to their infrastructure the same way.
/// Modifies `profiles` in place; returns the number of profiles tempered.
std::size_t temper_offered_load(std::vector<EdgeProfile>& profiles,
                                const endpoint::EndpointCatalog& endpoints,
                                const WorkloadConfig& config,
                                double max_utilisation = 0.45);

}  // namespace xfl::sim
