#include "endpoint/gridftp.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace xfl::endpoint {

std::uint32_t effective_concurrency(const GridFtpParams& params,
                                    std::uint64_t files) {
  XFL_EXPECTS(params.valid());
  XFL_EXPECTS(files >= 1);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params.concurrency, files));
}

std::uint32_t total_streams(const GridFtpParams& params, std::uint64_t files) {
  return effective_concurrency(params, files) * params.parallelism;
}

double cpu_work_factor(const GridFtpParams& params) {
  double factor = 1.0;
  if (params.integrity_check) factor += 0.4;
  return factor;
}

double startup_cost_s(const GridFtpParams& params, double rtt_s) {
  XFL_EXPECTS(params.valid());
  XFL_EXPECTS(rtt_s > 0.0);
  // Control channel: a few round trips; data channels: one setup round trip
  // per process pair, established concurrently but rate-limited by the
  // control channel, plus a constant service-side scheduling cost.
  return 0.8 + 4.0 * rtt_s + 0.25 * static_cast<double>(params.concurrency) * rtt_s;
}

double per_file_overhead_s(const GridFtpParams& params,
                           const storage::DiskSpec& disk, double rtt_s) {
  XFL_EXPECTS(params.valid());
  XFL_EXPECTS(rtt_s > 0.0);
  double overhead = disk.per_file_overhead_s + 0.5 * rtt_s;
  if (params.integrity_check) overhead += disk.per_file_overhead_s + rtt_s;
  return overhead;
}

double fault_intensity_per_s(const FaultPolicy& policy, double utilisation) {
  XFL_EXPECTS(utilisation >= 0.0 && utilisation <= 1.0001);
  const double u = std::min(utilisation, 1.0);
  // Faults become much more likely near saturation; cubic keeps the idle
  // regime nearly fault-free.
  return policy.base_rate_per_s + kLoadFaultRatePerS * u * u * u;
}

}  // namespace xfl::endpoint
