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
// inside each one, with the component's flows in their input order. A
// flow's xhat depends only on its own component's state, so the freezes of
// one component happen in the same order, with the same floating-point
// operations, as in one global solve over all flows: every rate is
// bit-identical to the global solve. A production simulation presents ~60
// flows per event, most of them lone background processes, so the
// components are small and the O(F^2) loop runs over a handful of flows.
//
// Dirty re-solve. MaxMinSolver keeps its scratch buffers across calls and
// re-solves only components that contain a *dirty* resource; the caller
// keeps the previous rates of every other flow. A component's rates are a
// pure function of its flows (in order), their usage and caps, and the
// capacities of its resources, so a resource must be marked dirty whenever
// any of those may have changed on it: its capacity changed, a flow on it
// joined or left, a flow on it changed its cap, or the relative order of
// its flows changed (the weight sums are accumulated, and ties broken, in
// flow order). A join or leave dirties every resource of the flow, which
// covers components that merge or split. Resources the solver has not seen
// before start dirty.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace xfl::sim {

using ResourceId = std::uint32_t;

/// A set of named rate resources with mutable capacities.
class ResourcePool {
 public:
  /// Add a resource; capacity in bytes/second (> 0, or 0 for a disabled
  /// resource which then allocates nothing).
  ResourceId add(std::string name, double capacity_Bps);

  std::size_t size() const { return capacity_.size(); }
  double capacity(ResourceId id) const;
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

/// A flow as MaxMinSolver sees it: a view of its usage and its cap. The
/// usage storage must outlive the plan()/solve() calls that use it.
struct FlowRef {
  std::span<const ResourceUsage> usage;
  double cap_Bps = 0.0;
};

/// Component-wise max-min solver with dirty re-solve (see the file comment).
/// One instance serves one ResourcePool across many events; after warm-up
/// it allocates nothing.
class MaxMinSolver {
 public:
  /// Require the next plan() to re-solve the component holding `resource`.
  void mark_dirty(ResourceId resource);

  /// Split `flows` into resource-connected components and select those that
  /// contain a dirty resource; then clear every dirty mark. First checks
  /// every usage entry (resource in the pool, weight and consumption factor
  /// > 0), so a violation leaves the solver as it was. Returns the number
  /// of flows solve() will re-solve.
  std::size_t plan(const ResourcePool& pool, std::span<const FlowRef> flows);

  /// Whether solve() writes flow `f`'s rate (flow indices as given to the
  /// last plan()). Flows with empty usage are always re-solved.
  bool selected(std::size_t f) const { return flow_slots_[f].selected; }

  /// Re-solve every selected flow, writing rates[f]; other entries are left
  /// as they are. `flows` must be the planned flows; only their caps may
  /// differ from plan() time (the second allocation pass re-caps them).
  /// Flows with empty usage get their cap. Requires every selected cap to
  /// be >= 0 (+inf allowed, NaN not).
  void solve(const ResourcePool& pool, std::span<const FlowRef> flows,
             std::span<double> rates);

 private:
  std::size_t find(std::size_t flow);
  void solve_component(const ResourcePool& pool,
                       std::span<const FlowRef> flows, std::size_t root,
                       std::span<double> rates);

  struct ResourceSlot {
    double remaining_cap = 0.0;
    double remaining_weight = 0.0;
    double fill = 0.0;  ///< remaining_cap / remaining_weight (rho_r).
    std::size_t first_flow = static_cast<std::size_t>(-1);  ///< Union seed.
    bool dirty = false;
  };
  struct FlowSlot {
    std::size_t parent = 0;  ///< Union-find link; a root is its own parent.
    std::size_t next = 0;    ///< Next flow of the same selected component.
    std::size_t tail = 0;    ///< On a root: last flow of its component.
    bool dirty_root = false; ///< On a root: its component holds a dirty resource.
    bool selected = false;
  };

  std::vector<ResourceSlot> resources_;
  std::vector<ResourceId> dirty_list_;
  std::vector<FlowSlot> flow_slots_;
  std::vector<std::size_t> roots_;   ///< Selected components, by root.
  std::vector<std::size_t> active_;  ///< Unfrozen flows of one component.
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
