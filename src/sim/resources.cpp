#include "sim/resources.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/contracts.hpp"

namespace xfl::sim {

ResourceId ResourcePool::add(std::string name, double capacity_Bps) {
  XFL_EXPECTS(capacity_Bps >= 0.0);
  capacity_.push_back(capacity_Bps);
  names_.push_back(std::move(name));
  return static_cast<ResourceId>(capacity_.size() - 1);
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

MaxMinSolver::FlowId MaxMinSolver::join(const ResourcePool& pool,
                                        std::span<const ResourceUsage> usage,
                                        double cap_Bps, std::uint64_t order) {
  for (const auto& use : usage) {  // Before any state changes.
    XFL_EXPECTS(use.resource < pool.size());
    XFL_EXPECTS(use.weight > 0.0);
    XFL_EXPECTS(use.consumption_factor > 0.0);
  }
  if (resources_.size() < pool.size()) resources_.resize(pool.size());
  FlowId flow;
  if (free_.empty()) {
    flow = static_cast<FlowId>(flows_.size());
    flows_.emplace_back();
  } else {
    flow = free_.back();
    free_.pop_back();
  }
  flows_[flow] = {.usage = usage, .cap = cap_Bps, .solve_cap = cap_Bps,
                  .order = order};
  if (usage.empty()) unbound_.push_back(flow);
  for (const auto& use : usage) {
    resources_[use.resource].flows.push_back(flow);
    mark_dirty(use.resource);
  }
  return flow;
}

void MaxMinSolver::leave(FlowId flow) {
  XFL_EXPECTS(flow < flows_.size());
  if (flows_[flow].usage.empty()) {  // A departed flow lands here too.
    const auto it = std::find(unbound_.begin(), unbound_.end(), flow);
    XFL_EXPECTS(it != unbound_.end());
    unbound_.erase(it);
  }
  // One index entry per usage entry; their order within a resource is
  // irrelevant (plan() sorts each component into flow order).
  for (const auto& use : flows_[flow].usage) {
    auto& on = resources_[use.resource].flows;
    *std::find(on.begin(), on.end(), flow) = on.back();
    on.pop_back();
    mark_dirty(use.resource);
  }
  flows_[flow] = {};
  free_.push_back(flow);
}

void MaxMinSolver::reorder(FlowId flow, std::uint64_t order) {
  XFL_EXPECTS(flow < flows_.size());
  flows_[flow].order = order;
  for (const auto& use : flows_[flow].usage) mark_dirty(use.resource);
}

void MaxMinSolver::mark_dirty(ResourceId resource) {
  if (resource >= resources_.size()) resources_.resize(resource + 1);
  if (resources_[resource].dirty) return;
  resources_[resource].dirty = true;
  dirty_list_.push_back(resource);
}

void MaxMinSolver::reach(ResourceId resource) {
  auto& slot = resources_[resource];
  if (slot.visit == plan_) return;
  slot.visit = plan_;
  reached_.push_back(resource);
}

std::size_t MaxMinSolver::plan() {
  ++plan_;
  reached_.clear();
  selected_.clear();
  components_.clear();
  const auto by_order = [this](FlowId a, FlowId b) {
    return flows_[a].order < flows_[b].order;
  };
  // Each dirty resource not yet reached seeds one component: breadth-first
  // over resource -> flows -> resources, with reached_ as the queue.
  for (const ResourceId seed : dirty_list_) {
    resources_[seed].dirty = false;
    if (resources_[seed].visit == plan_) continue;
    const std::size_t begin = selected_.size();
    std::size_t next = reached_.size();
    reach(seed);
    while (next < reached_.size())
      for (const FlowId f : resources_[reached_[next++]].flows) {
        auto& flow = flows_[f];
        if (flow.visit == plan_) continue;
        flow.visit = plan_;
        flow.component = components_.size();
        selected_.push_back(f);
        for (const auto& use : flow.usage) reach(use.resource);
      }
    if (selected_.size() == begin) {  // It lost its last flow.
      resources_[seed].load = 0.0;
      reached_.pop_back();
      continue;
    }
    std::sort(selected_.begin() + static_cast<std::ptrdiff_t>(begin),
              selected_.end(), by_order);
    components_.push_back({selected_.size(), reached_.size()});
  }
  dirty_list_.clear();
  // A flow without resources is a component of its own.
  for (const FlowId f : unbound_) {
    flows_[f].visit = plan_;
    flows_[f].component = components_.size();
    selected_.push_back(f);
    components_.push_back({selected_.size(), reached_.size()});
  }
  for (const FlowId f : selected_) flows_[f].solve_cap = flows_[f].cap;
  return selected_.size();
}

void MaxMinSolver::set_cap(FlowId flow, double cap_Bps) {
  XFL_EXPECTS(flow < flows_.size() && flows_[flow].visit == plan_);
  auto& slot = flows_[flow];
  if (std::bit_cast<std::uint64_t>(slot.solve_cap) ==
      std::bit_cast<std::uint64_t>(cap_Bps))
    return;  // Same inputs, same rates.
  slot.solve_cap = cap_Bps;
  components_[slot.component].stale = true;
}

void MaxMinSolver::solve(const ResourcePool& pool) {
  std::size_t flow_begin = 0;
  std::size_t resource_begin = 0;
  for (auto& component : components_) {
    const std::size_t flow_end = component.flow_end;
    const std::size_t resource_end = component.resource_end;
    if (component.stale) {
      component.stale = false;
      solve_component(pool, flow_begin, flow_end);
      // Every flow on these resources is in this component, which
      // selected_ holds in flow order: the same additions, in the same
      // order, as a sum over every flow.
      for (std::size_t k = resource_begin; k < resource_end; ++k)
        resources_[reached_[k]].load = 0.0;
      for (std::size_t k = flow_begin; k < flow_end; ++k) {
        const FlowSlot& flow = flows_[selected_[k]];
        for (const auto& use : flow.usage)
          resources_[use.resource].load += flow.rate * use.consumption_factor;
      }
    }
    flow_begin = flow_end;
    resource_begin = resource_end;
  }
}

void MaxMinSolver::solve_component(const ResourcePool& pool, std::size_t begin,
                                   std::size_t end) {
  // Same operations, in the same order, as one global solve restricted to
  // this component: capacities reset, weights summed in flow order.
  active_.clear();
  for (std::size_t k = begin; k < end; ++k) {
    const FlowId f = selected_[k];
    XFL_EXPECTS(flows_[f].solve_cap >= 0.0);  // Also rejects NaN.
    active_.push_back(f);
    for (const auto& use : flows_[f].usage) {
      auto& resource = resources_[use.resource];
      resource.remaining_cap = pool.capacity(use.resource);
      resource.remaining_weight = 0.0;
    }
  }
  for (const FlowId f : active_)
    for (const auto& use : flows_[f].usage)
      resources_[use.resource].remaining_weight += use.weight;
  // rho_r is the first operation of every share on r; keeping it per
  // resource, refreshed when r changes, leaves each share's value as is.
  for (const FlowId f : active_)
    for (const auto& use : flows_[f].usage) {
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
      const FlowSlot& flow = flows_[active_[k]];
      double candidate = flow.solve_cap;
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
    FlowSlot& frozen = flows_[active_[best]];
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(best));
    const double rate = std::max(best_rate, 0.0);
    frozen.rate = rate;
    for (const auto& use : frozen.usage) {
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
  MaxMinSolver solver;  // Fresh: every flow joins, so everything is dirty.
  std::vector<MaxMinSolver::FlowId> ids;
  ids.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f)
    ids.push_back(solver.join(pool, flows[f].usage, flows[f].cap_Bps, f));
  solver.plan();
  solver.solve(pool);
  std::vector<double> rates;
  rates.reserve(flows.size());
  for (const auto id : ids) rates.push_back(solver.rate(id));
  return rates;
}

}  // namespace xfl::sim
