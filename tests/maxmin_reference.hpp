// The original global max-min solver, kept verbatim as the test oracle.
//
// It re-solves every flow from scratch: each round scans all unfrozen flows
// and freezes the one with the smallest fair share (the first one on ties).
// sim::maxmin_allocate and sim::MaxMinSolver must reproduce its rates bit
// for bit on every input it accepts. (It trips its postcondition when every
// remaining flow's share is +inf or NaN; the production solver rejects NaN
// caps and gives such flows their cap instead.)
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "sim/resources.hpp"

namespace xfl::sim::oracle {

inline std::vector<double> reference_maxmin_allocate(
    const ResourcePool& pool, const std::vector<FlowSpec>& flows) {
  const std::size_t flow_count = flows.size();
  std::vector<double> rates(flow_count, 0.0);
  if (flow_count == 0) return rates;

  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<double> remaining_cap(pool.size());
  for (std::size_t r = 0; r < pool.size(); ++r)
    remaining_cap[r] = pool.capacity(static_cast<ResourceId>(r));

  std::vector<double> remaining_weight(pool.size(), 0.0);
  for (const auto& flow : flows)
    for (const auto& use : flow.usage) {
      XFL_EXPECTS(use.resource < pool.size());
      XFL_EXPECTS(use.weight > 0.0);
      XFL_EXPECTS(use.consumption_factor > 0.0);
      remaining_weight[use.resource] += use.weight;
    }

  std::vector<bool> frozen(flow_count, false);
  for (std::size_t round = 0; round < flow_count; ++round) {
    // Current per-resource fill level per unit weight.
    // (Recomputed each round: O(F * avg usage); F stays in the hundreds.)
    double best_rate = kInf;
    std::size_t best_flow = flow_count;
    for (std::size_t f = 0; f < flow_count; ++f) {
      if (frozen[f]) continue;
      double candidate = flows[f].cap_Bps;
      for (const auto& use : flows[f].usage) {
        const double weight_sum = remaining_weight[use.resource];
        // Fair share in *work* units is rho * w; dividing by the
        // consumption factor converts it back to flow-rate units.
        const double share =
            weight_sum > 0.0
                ? remaining_cap[use.resource] / weight_sum * use.weight /
                      use.consumption_factor
                : 0.0;
        candidate = std::min(candidate, share);
      }
      if (candidate < best_rate) {
        best_rate = candidate;
        best_flow = f;
      }
    }
    XFL_ENSURES(best_flow < flow_count);
    frozen[best_flow] = true;
    const double rate = std::max(best_rate, 0.0);
    rates[best_flow] = rate;
    for (const auto& use : flows[best_flow].usage) {
      remaining_cap[use.resource] =
          std::max(0.0, remaining_cap[use.resource] - rate * use.consumption_factor);
      remaining_weight[use.resource] -= use.weight;
      if (remaining_weight[use.resource] < 0.0)
        remaining_weight[use.resource] = 0.0;
    }
  }
  return rates;
}

}  // namespace xfl::sim::oracle
