// Weighted max-min fair rate allocation over shared resources.
//
// The fluid simulator models every shared component — disk read/write, NIC
// in/out, CPU, and WAN links — as a rate resource with a capacity in
// bytes/second. Each active flow (a Globus transfer, a probe, or a
// background-load process) crosses a set of resources with a per-resource
// *weight* (its GridFTP process count on disk/CPU resources, its TCP stream
// count on network resources) and has an optional per-flow rate cap (its
// TCP ceiling or its demand). Between simulator events, rates are the
// weighted max-min fair allocation computed here.
//
// Algorithm (progressive filling, one flow frozen per round):
//   repeat until all flows frozen:
//     rho_r  = remaining_cap_r / (sum of weights of unfrozen flows on r)
//     xhat_f = min(cap_f, min over r used by f of rho_r * w_{f,r})
//     freeze the flow with the smallest xhat (the first in flow order on
//     ties) at that rate; subtract its consumption from every resource it
//     crosses.
// Because xhat_f <= rho_r * w_{f,r} <= remaining_cap_r for every r the flow
// uses, each freeze is feasible, and with uniform weights the fixpoint is
// classic max-min fairness. This is the same family of solver used by
// flow-level network simulators such as SimGrid.
//
// Components. Flows that share no resource, directly or through other
// flows, cannot influence each other's rates. The solver therefore splits
// the flows into resource-connected components and runs the loop above
// inside each one, with the component's flows in flow order. A
// flow's xhat depends only on its own component's state, so the freezes of
// one component happen in the same order, with the same floating-point
// operations, as in one global solve over all flows: every rate is
// bit-identical to the global solve. A production simulation presents ~60
// flows per event, most of them lone background processes, so the
// components are small and the O(F^2) loop runs over a handful of flows.
//
// Event-local re-solve. MaxMinSolver keeps a persistent flow table: a
// flow joins with its usage, its cap and an *order key* (its position in
// flow order; keys are compared, never counted, so they need not be dense),
// and stays until it leaves. An index from each resource to the flows on it
// is updated on join and leave, and the usage contract is checked at join.
// plan() walks outward from the *dirty* resources over that index to
// collect exactly the components that hold one, sorts each component's
// flows into flow order, and touches no other flow; solve() re-solves those
// components and recomputes the per-resource loads (sum of rate *
// consumption factor) of their resources, adding each component's flows in
// flow order, which is the order a global sum over all flows would use. A
// resource marked dirty that has lost its last flow reads load 0. A later
// solve() of the same plan re-solves only the components in which
// set_cap() changed a cap. Every other flow keeps its rate and every other
// resource its load.
//
// A component's rates are a pure function of its flows (in order), their
// usage and caps, and the capacities of its resources, so a resource must
// be dirty whenever any of those may have changed on it: join, leave and
// reorder dirty every resource of the flow (which covers components that
// merge or split), and the caller marks a resource whose capacity changed.
// Flows with empty usage are on no resource; every plan re-solves them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.hpp"

namespace xfl::sim {

using ResourceId = std::uint32_t;

/// A set of named rate resources with mutable capacities.
class ResourcePool {
 public:
  /// Add a resource; capacity in bytes/second (> 0, or 0 for a disabled
  /// resource which then allocates nothing).
  ResourceId add(std::string name, double capacity_Bps);

  std::size_t size() const { return capacity_.size(); }
  double capacity(ResourceId id) const {
    XFL_EXPECTS(id < capacity_.size());
    return capacity_[id];
  }
  const std::string& name(ResourceId id) const;

  /// Update a capacity (CPU efficiency and background modulation need this).
  void set_capacity(ResourceId id, double capacity_Bps);

 private:
  std::vector<double> capacity_;
  std::vector<std::string> names_;
};

/// One (resource, weight) usage entry of a flow.
///
/// `weight` sets the flow's share priority on the resource (streams on
/// network resources, processes on disk/CPU). `consumption_factor` converts
/// flow rate into resource consumption: 1.0 for byte-carrying resources;
/// >1.0 on CPU when integrity checking or encryption makes each transferred
/// byte cost more than one byte of processing.
struct ResourceUsage {
  ResourceId resource = 0;
  double weight = 1.0;
  double consumption_factor = 1.0;
};

/// A flow to be allocated: the resources it crosses and its own ceiling.
struct FlowSpec {
  std::vector<ResourceUsage> usage;
  double cap_Bps = 1.0e15;  ///< Per-flow ceiling (TCP model / demand).
};

/// Component-wise max-min solver over a persistent flow table with
/// event-local re-solve (see the file comment). One instance serves one
/// ResourcePool across many events; after warm-up it allocates nothing.
class MaxMinSolver {
 public:
  using FlowId = std::uint32_t;

  /// Add a flow that crosses `usage` (the storage must stay valid and
  /// unchanged until leave()) with ceiling `cap_Bps`, at `order` in flow
  /// order (no two live flows may share a key). First checks every usage
  /// entry (resource in the pool, weight and consumption factor > 0), so a
  /// violation leaves the solver as it was. Dirties the flow's resources.
  /// Returns its id; a departed flow's id is reused.
  FlowId join(const ResourcePool& pool, std::span<const ResourceUsage> usage,
              double cap_Bps, std::uint64_t order);
  /// Remove a live flow; dirties its resources.
  void leave(FlowId flow);
  /// Move a flow to `order` in flow order; dirties its resources.
  void reorder(FlowId flow, std::uint64_t order);
  /// Require the next plan() to re-solve the component holding `resource`
  /// and recompute its load (its capacity changed).
  void mark_dirty(ResourceId resource);

  /// Select the components that hold a dirty resource, plus every flow with
  /// empty usage, and give each selected flow back its join-time cap; then
  /// clear every dirty mark. Returns the number of flows it visited, each of
  /// which it selected.
  std::size_t plan();

  /// The flows the last plan() selected, component by component, each
  /// component in flow order.
  std::span<const FlowId> selected() const { return selected_; }

  /// Cap a selected flow at `cap_Bps` for the following solve() calls, up
  /// to the next plan() (the simulator's second pass re-caps this way). A
  /// cap that changes bit-wise marks the flow's component for re-solve.
  void set_cap(FlowId flow, double cap_Bps);

  /// Re-solve each selected component that the plan has not solved yet or
  /// in which set_cap() changed a cap since, and recompute the loads of its
  /// resources; other rates and loads are left as they are. Flows with
  /// empty usage get their cap. Requires every selected cap to be >= 0
  /// (+inf allowed, NaN not).
  void solve(const ResourcePool& pool);

  double rate(FlowId flow) const { return flows_[flow].rate; }
  /// Consumption on `resource` (sum of rate * consumption factor over its
  /// flows) as of the last plan() and solve(); 0 for a resource no flow
  /// crosses.
  double load(ResourceId resource) const {
    return resource < resources_.size() ? resources_[resource].load : 0.0;
  }
  /// Flows currently in the table.
  std::size_t flow_count() const { return flows_.size() - free_.size(); }

 private:
  void reach(ResourceId resource);
  void solve_component(const ResourcePool& pool, std::size_t begin,
                       std::size_t end);

  /// One selected component: its flows end at selected_[flow_end] and its
  /// resources at reached_[resource_end]; each begins where the previous
  /// component ends.
  struct Component {
    std::size_t flow_end = 0;
    std::size_t resource_end = 0;
    bool stale = true;  ///< Rates not yet solved at the current caps.
  };

  struct ResourceSlot {
    double remaining_cap = 0.0;
    double remaining_weight = 0.0;
    double fill = 0.0;  ///< remaining_cap / remaining_weight (rho_r).
    double load = 0.0;
    std::vector<FlowId> flows;  ///< One entry per usage entry on it.
    std::uint64_t visit = 0;    ///< Last plan that reached it.
    bool dirty = false;
  };
  struct FlowSlot {
    std::span<const ResourceUsage> usage;
    double cap = 0.0;        ///< Join-time cap.
    double solve_cap = 0.0;  ///< Cap of the current plan.
    double rate = 0.0;
    std::uint64_t order = 0;
    std::uint64_t visit = 0;     ///< Last plan that selected it.
    std::size_t component = 0;   ///< Its index in components_ then.
  };

  std::vector<ResourceSlot> resources_;
  std::vector<FlowSlot> flows_;
  std::vector<FlowId> free_;     ///< Ids of departed flows.
  std::vector<FlowId> unbound_;  ///< Live flows with empty usage.
  std::uint64_t plan_ = 0;
  std::vector<ResourceId> dirty_list_;
  std::vector<ResourceId> reached_;  ///< Resources of the last plan.
  std::vector<FlowId> selected_;
  std::vector<Component> components_;
  std::vector<FlowId> active_;  ///< Unfrozen flows of one component.
};

/// Compute the weighted max-min fair allocation from scratch. Returns one
/// rate per flow, in input order. Flows with empty usage get their cap
/// (+inf included). Requires caps >= 0 (NaN rejected). Guarantees:
///   * per-resource feasibility: sum of allocated rates on r <= capacity(r)
///     (up to floating-point round-off),
///   * every flow rate <= its cap,
///   * no flow gets 0 unless its cap is 0 or a crossed resource has
///     capacity 0.
std::vector<double> maxmin_allocate(const ResourcePool& pool,
                                    const std::vector<FlowSpec>& flows);

}  // namespace xfl::sim
