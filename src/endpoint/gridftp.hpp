// GridFTP session semantics (§2, §4.1 of the paper).
//
// A Globus transfer with concurrency C starts C GridFTP process pairs; each
// pair moves one file at a time over P parallel TCP streams. A transfer of
// Nf files can use at most min(C, Nf) pairs, so the effective process count
// and total stream count are min(C, Nf) and min(C, Nf) * P — exactly the
// quantities the paper's G and S contention features aggregate.
#pragma once

#include <cstdint>

#include "storage/disk.hpp"

namespace xfl::endpoint {

/// User-tunable GridFTP parameters of one transfer.
struct GridFtpParams {
  std::uint32_t concurrency = 4;   ///< C: process pairs.
  std::uint32_t parallelism = 4;   ///< P: TCP streams per pair.
  bool integrity_check = true;     ///< Per-file checksum (Globus default on).

  bool valid() const { return concurrency >= 1 && parallelism >= 1; }
};

/// Effective number of GridFTP process pairs: min(C, Nf) (a transfer with
/// fewer files than C cannot use all pairs — the paper applies the same
/// min() in its G feature).
/// Preconditions: params.valid(), files >= 1.
std::uint32_t effective_concurrency(const GridFtpParams& params, std::uint64_t files);

/// Total parallel TCP streams: effective_concurrency * P.
std::uint32_t total_streams(const GridFtpParams& params, std::uint64_t files);

/// CPU work multiplier: every transferred byte costs one unit of CPU work;
/// integrity checking reads and hashes the data again (~0.4 extra).
double cpu_work_factor(const GridFtpParams& params);

/// Fixed startup cost of a transfer before bytes flow: control-channel
/// setup plus per-pair connection establishment.
/// Precondition: params.valid().
double startup_cost_s(const GridFtpParams& params, double rtt_s);

/// Per-file dead time experienced by one process pair between files:
/// storage open/close cost plus (if enabled) the checksum round trip.
double per_file_overhead_s(const GridFtpParams& params,
                           const storage::DiskSpec& disk, double rtt_s);

/// Fault/retry behaviour of the Globus service: how long a fault stalls a
/// transfer and how often faults strike an idle system.
struct FaultPolicy {
  double retry_delay_s = 15.0;      ///< Backoff before the faulted pair resumes.
  /// Base fault rate per transfer-second when the endpoints are idle.
  double base_rate_per_s = 2.0e-5;
};

/// Additional fault rate per transfer-second at full endpoint load: faults
/// correlate with load (§5.3 discusses the load–fault link).
inline constexpr double kLoadFaultRatePerS = 2.0e-3;

/// Instantaneous fault intensity for a transfer given the utilisation (in
/// [0, 1]) of its most loaded endpoint resource; at full load it reaches
/// base_rate_per_s + kLoadFaultRatePerS.
/// Preconditions: utilisation in [0, 1.0001] (small numeric slack).
double fault_intensity_per_s(const FaultPolicy& policy, double utilisation);

}  // namespace xfl::endpoint
