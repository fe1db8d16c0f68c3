// The monitored-storage study of §5.5.2: controlled transfers between two
// Lustre-backed endpoints while an LMT-style monitor samples true storage
// load every five seconds. A baseline model sees only the 15 log-derived
// features; the augmented model additionally sees four storage-load
// features — CPU load on the source and destination OSS and disk read /
// write load on the source / destination OST, averaged over each transfer's
// window. The paper reports the 95th-percentile error dropping from 9.29%
// to 1.26%.
#pragma once

#include <cstdint>

#include "endpoint/endpoint.hpp"
#include "ml/gbt.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace xfl::core {

struct LmtStudyConfig {
  ml::GbtConfig gbt;
  std::uint64_t seed = 555;
};

struct LmtStudyReport {
  std::size_t test_transfers = 0;
  double baseline_p95 = 0.0;    ///< 95th-percentile APE, 15 features.
  double augmented_p95 = 0.0;   ///< 95th-percentile APE, +4 LMT features.
  double baseline_mdape = 0.0;
  double augmented_mdape = 0.0;
};

/// Run the study on the result of a monitored scenario (make_nersc_lmt),
/// whose controlled test transfers carry ids in [sim::kLmtTestFirstId,
/// sim::kLmtLoadFirstId). `src`/`dst` name the monitored endpoints whose
/// samples provide the LMT features. Requires samples for both endpoints
/// and >= 50 test transfers.
LmtStudyReport run_lmt_study(const sim::SimResult& result,
                             endpoint::EndpointId src,
                             endpoint::EndpointId dst,
                             const LmtStudyConfig& config = {});

}  // namespace xfl::core
