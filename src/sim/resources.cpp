#include "sim/resources.hpp"

#include <algorithm>
#include <limits>

#include "common/contracts.hpp"

namespace xfl::sim {

ResourceId ResourcePool::add(std::string name, double capacity_Bps) {
  XFL_EXPECTS(capacity_Bps >= 0.0);
  capacity_.push_back(capacity_Bps);
  names_.push_back(std::move(name));
  return static_cast<ResourceId>(capacity_.size() - 1);
}

double ResourcePool::capacity(ResourceId id) const {
  XFL_EXPECTS(id < capacity_.size());
  return capacity_[id];
}

const std::string& ResourcePool::name(ResourceId id) const {
  XFL_EXPECTS(id < names_.size());
  return names_[id];
}

void ResourcePool::set_capacity(ResourceId id, double capacity_Bps) {
  XFL_EXPECTS(id < capacity_.size());
  XFL_EXPECTS(capacity_Bps >= 0.0);
  capacity_[id] = capacity_Bps;
}

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void MaxMinSolver::mark_dirty(ResourceId resource) {
  // Resources beyond resources_ have never been planned; they start dirty.
  if (resource >= resources_.size() || resources_[resource].dirty) return;
  resources_[resource].dirty = true;
  dirty_list_.push_back(resource);
}

std::size_t MaxMinSolver::find(std::size_t flow) {
  while (flow_slots_[flow].parent != flow) {
    auto& parent = flow_slots_[flow].parent;
    parent = flow_slots_[parent].parent;
    flow = parent;
  }
  return flow;
}

std::size_t MaxMinSolver::plan(const ResourcePool& pool,
                               std::span<const FlowRef> flows) {
  const std::size_t resource_count = pool.size();
  for (const auto& flow : flows)  // Before any state changes.
    for (const auto& use : flow.usage) {
      XFL_EXPECTS(use.resource < resource_count);
      XFL_EXPECTS(use.weight > 0.0);
      XFL_EXPECTS(use.consumption_factor > 0.0);
    }
  const std::size_t seen = resources_.size();  // Later ones start dirty.
  resources_.resize(resource_count);
  const std::size_t flow_count = flows.size();
  flow_slots_.assign(flow_count, FlowSlot{});
  roots_.reserve(flow_count);
  active_.reserve(flow_count);

  // Union flows that share a resource. The root of a component is its
  // smallest flow index, so roots come first in flow order.
  for (std::size_t f = 0; f < flow_count; ++f) {
    flow_slots_[f].parent = f;
    for (const auto& use : flows[f].usage) {
      std::size_t& first = resources_[use.resource].first_flow;
      if (first == kNone) {
        first = f;
        continue;
      }
      const std::size_t a = find(f);
      const std::size_t b = find(first);
      if (a < b) flow_slots_[b].parent = a;
      if (b < a) flow_slots_[a].parent = b;
    }
  }

  // A component is re-solved if it holds a dirty resource. Flows without
  // resources form their own component and are always re-solved.
  for (std::size_t f = 0; f < flow_count; ++f) {
    if (flows[f].usage.empty()) flow_slots_[f].dirty_root = true;
    for (const auto& use : flows[f].usage) {
      auto& resource = resources_[use.resource];
      if (resource.dirty || use.resource >= seen)
        flow_slots_[find(f)].dirty_root = true;
      resource.first_flow = kNone;
    }
  }
  for (const ResourceId r : dirty_list_) resources_[r].dirty = false;
  dirty_list_.clear();

  // Thread each selected component's flows into a list, in flow order.
  roots_.clear();
  std::size_t count = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    const std::size_t root = find(f);
    auto& slot = flow_slots_[f];
    if (!flow_slots_[root].dirty_root) continue;
    slot.selected = true;
    ++count;
    slot.next = kNone;
    if (root == f)
      roots_.push_back(f);
    else
      flow_slots_[flow_slots_[root].tail].next = f;
    flow_slots_[root].tail = f;
  }
  return count;
}

void MaxMinSolver::solve(const ResourcePool& pool,
                         std::span<const FlowRef> flows,
                         std::span<double> rates) {
  XFL_EXPECTS(flows.size() == flow_slots_.size());
  XFL_EXPECTS(rates.size() == flows.size());
  for (const std::size_t root : roots_)
    solve_component(pool, flows, root, rates);
}

void MaxMinSolver::solve_component(const ResourcePool& pool,
                                   std::span<const FlowRef> flows,
                                   std::size_t root, std::span<double> rates) {
  // Same operations, in the same order, as one global solve restricted to
  // this component: capacities reset, weights summed in flow order.
  active_.clear();
  for (std::size_t f = root; f != kNone; f = flow_slots_[f].next) {
    XFL_EXPECTS(flows[f].cap_Bps >= 0.0);  // Also rejects NaN.
    active_.push_back(f);
    for (const auto& use : flows[f].usage) {
      auto& resource = resources_[use.resource];
      resource.remaining_cap = pool.capacity(use.resource);
      resource.remaining_weight = 0.0;
    }
  }
  for (const std::size_t f : active_)
    for (const auto& use : flows[f].usage)
      resources_[use.resource].remaining_weight += use.weight;
  // rho_r is the first operation of every share on r; keeping it per
  // resource, refreshed when r changes, leaves each share's value as is.
  for (const std::size_t f : active_)
    for (const auto& use : flows[f].usage) {
      auto& resource = resources_[use.resource];
      resource.fill = resource.remaining_cap / resource.remaining_weight;
    }

  while (!active_.empty()) {
    // Fair share in *work* units is rho * w; dividing by the consumption
    // factor converts it back to flow-rate units.
    double best_rate = kInf;
    std::size_t best = kNone;
    double first_candidate = kInf;
    for (std::size_t k = 0; k < active_.size(); ++k) {
      const FlowRef& flow = flows[active_[k]];
      double candidate = flow.cap_Bps;
      for (const auto& use : flow.usage) {
        const auto& resource = resources_[use.resource];
        const double share =
            resource.remaining_weight > 0.0
                ? resource.fill * use.weight / use.consumption_factor
                : 0.0;
        candidate = std::min(candidate, share);
      }
      if (k == 0) first_candidate = candidate;
      if (candidate < best_rate) {
        best_rate = candidate;
        best = k;
      }
    }
    // Every share is +inf: nothing bounds these flows, so the first one
    // gets its (infinite) cap.
    if (best == kNone) {
      best = 0;
      best_rate = first_candidate;
    }
    const std::size_t frozen = active_[best];
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(best));
    const double rate = std::max(best_rate, 0.0);
    rates[frozen] = rate;
    for (const auto& use : flows[frozen].usage) {
      auto& resource = resources_[use.resource];
      resource.remaining_cap =
          std::max(0.0, resource.remaining_cap - rate * use.consumption_factor);
      resource.remaining_weight -= use.weight;
      if (resource.remaining_weight < 0.0) resource.remaining_weight = 0.0;
      resource.fill = resource.remaining_cap / resource.remaining_weight;
    }
  }
}

std::vector<double> maxmin_allocate(const ResourcePool& pool,
                                    const std::vector<FlowSpec>& flows) {
  std::vector<FlowRef> refs;
  refs.reserve(flows.size());
  for (const auto& flow : flows) refs.push_back({flow.usage, flow.cap_Bps});
  std::vector<double> rates(flows.size(), 0.0);
  MaxMinSolver solver;  // Fresh: every resource starts dirty.
  solver.plan(pool, refs);
  solver.solve(pool, refs, rates);
  return rates;
}

}  // namespace xfl::sim
