#include "sim/resources.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "maxmin_reference.hpp"

namespace xfl::sim {
namespace {

TEST(ResourcePool, AddAndQuery) {
  ResourcePool pool;
  const auto id = pool.add("disk", 100.0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_DOUBLE_EQ(pool.capacity(id), 100.0);
  EXPECT_EQ(pool.name(id), "disk");
  pool.set_capacity(id, 50.0);
  EXPECT_DOUBLE_EQ(pool.capacity(id), 50.0);
}

TEST(ResourcePool, ContractChecks) {
  ResourcePool pool;
  EXPECT_THROW(pool.capacity(0), xfl::ContractViolation);
  EXPECT_THROW(pool.add("x", -1.0), xfl::ContractViolation);
}

TEST(MaxMin, EmptyFlows) {
  ResourcePool pool;
  pool.add("r", 10.0);
  EXPECT_TRUE(maxmin_allocate(pool, {}).empty());
}

TEST(MaxMin, LoneFlowGetsMinOfCapAndResources) {
  ResourcePool pool;
  const auto r1 = pool.add("a", 100.0);
  const auto r2 = pool.add("b", 60.0);
  FlowSpec flow;
  flow.usage = {{r1, 1.0, 1.0}, {r2, 1.0, 1.0}};
  flow.cap_Bps = 1000.0;
  EXPECT_DOUBLE_EQ(maxmin_allocate(pool, {flow})[0], 60.0);
  flow.cap_Bps = 25.0;
  EXPECT_DOUBLE_EQ(maxmin_allocate(pool, {flow})[0], 25.0);
}

TEST(MaxMin, EqualFlowsShareEqually) {
  ResourcePool pool;
  const auto r = pool.add("link", 90.0);
  FlowSpec flow;
  flow.usage = {{r, 1.0, 1.0}};
  const auto rates = maxmin_allocate(pool, {flow, flow, flow});
  for (const double rate : rates) EXPECT_DOUBLE_EQ(rate, 30.0);
}

TEST(MaxMin, WeightsSplitProportionally) {
  ResourcePool pool;
  const auto r = pool.add("link", 90.0);
  FlowSpec light, heavy;
  light.usage = {{r, 1.0, 1.0}};
  heavy.usage = {{r, 2.0, 1.0}};
  const auto rates = maxmin_allocate(pool, {light, heavy});
  EXPECT_DOUBLE_EQ(rates[0], 30.0);
  EXPECT_DOUBLE_EQ(rates[1], 60.0);
}

TEST(MaxMin, CappedFlowReleasesCapacity) {
  ResourcePool pool;
  const auto r = pool.add("link", 100.0);
  FlowSpec capped, open;
  capped.usage = {{r, 1.0, 1.0}};
  capped.cap_Bps = 10.0;
  open.usage = {{r, 1.0, 1.0}};
  const auto rates = maxmin_allocate(pool, {capped, open});
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 90.0);  // Max-min: unused share is reassigned.
}

TEST(MaxMin, MultiBottleneckClassicExample) {
  // Classic 3-flow example: flows A (link1), B (link1+link2), C (link2).
  // link1 cap 10, link2 cap 20 -> A=B=5 on link1; C gets 15 on link2.
  ResourcePool pool;
  const auto l1 = pool.add("l1", 10.0);
  const auto l2 = pool.add("l2", 20.0);
  FlowSpec a, b, c;
  a.usage = {{l1, 1.0, 1.0}};
  b.usage = {{l1, 1.0, 1.0}, {l2, 1.0, 1.0}};
  c.usage = {{l2, 1.0, 1.0}};
  const auto rates = maxmin_allocate(pool, {a, b, c});
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
  EXPECT_DOUBLE_EQ(rates[2], 15.0);
}

TEST(MaxMin, ConsumptionFactorScalesShareAndUse) {
  // A flow whose bytes cost 2x on the resource gets half the rate, and
  // feasibility accounts for the doubled consumption.
  ResourcePool pool;
  const auto cpu = pool.add("cpu", 100.0);
  FlowSpec expensive;
  expensive.usage = {{cpu, 1.0, 2.0}};
  EXPECT_DOUBLE_EQ(maxmin_allocate(pool, {expensive})[0], 50.0);
}

TEST(MaxMin, ZeroCapacityResourceStarvesFlow) {
  ResourcePool pool;
  const auto dead = pool.add("dead", 0.0);
  FlowSpec flow;
  flow.usage = {{dead, 1.0, 1.0}};
  EXPECT_DOUBLE_EQ(maxmin_allocate(pool, {flow})[0], 0.0);
}

TEST(MaxMin, FlowWithoutResourcesGetsCap) {
  ResourcePool pool;
  FlowSpec flow;
  flow.cap_Bps = 42.0;
  EXPECT_DOUBLE_EQ(maxmin_allocate(pool, {flow})[0], 42.0);
}

TEST(MaxMin, FlowWithoutResourcesGetsInfiniteCap) {
  // The contract promises empty-usage flows their cap; +inf is a cap too.
  ResourcePool pool;
  const auto r = pool.add("r", 10.0);
  FlowSpec unbounded;
  unbounded.cap_Bps = std::numeric_limits<double>::infinity();
  FlowSpec bounded;
  bounded.usage = {{r, 1.0, 1.0}};
  const auto lone = maxmin_allocate(pool, {unbounded});
  EXPECT_EQ(lone[0], std::numeric_limits<double>::infinity());
  const auto mixed = maxmin_allocate(pool, {unbounded, bounded, unbounded});
  EXPECT_EQ(mixed[0], std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(mixed[1], 10.0);
  EXPECT_EQ(mixed[2], std::numeric_limits<double>::infinity());
}

TEST(MaxMin, RejectsNanCapAsPrecondition) {
  ResourcePool pool;
  const auto r = pool.add("r", 10.0);
  FlowSpec nan_cap;
  nan_cap.usage = {{r, 1.0, 1.0}};
  nan_cap.cap_Bps = std::numeric_limits<double>::quiet_NaN();
  FlowSpec no_usage;
  no_usage.cap_Bps = std::numeric_limits<double>::quiet_NaN();
  for (const auto& flow : {nan_cap, no_usage}) {
    try {
      maxmin_allocate(pool, {flow});
      ADD_FAILURE() << "NaN cap accepted";
    } catch (const xfl::ContractViolation& violation) {
      EXPECT_EQ(std::string(violation.what()).rfind("precondition", 0), 0u)
          << violation.what();
    }
  }
}

TEST(MaxMin, RejectsNegativeCap) {
  ResourcePool pool;
  const auto r = pool.add("r", 10.0);
  FlowSpec flow;
  flow.usage = {{r, 1.0, 1.0}};
  flow.cap_Bps = -1.0;
  EXPECT_THROW(maxmin_allocate(pool, {flow}), xfl::ContractViolation);
}

TEST(MaxMin, RejectsBadUsage) {
  ResourcePool pool;
  pool.add("r", 10.0);
  FlowSpec bad_weight;
  bad_weight.usage = {{0, 0.0, 1.0}};
  EXPECT_THROW(maxmin_allocate(pool, {bad_weight}), xfl::ContractViolation);
  FlowSpec bad_resource;
  bad_resource.usage = {{5, 1.0, 1.0}};
  EXPECT_THROW(maxmin_allocate(pool, {bad_resource}), xfl::ContractViolation);
}

// Property: for random instances, allocations are feasible (no resource
// oversubscribed), respect caps, and are non-negative; no flow with a
// positive cap and positive-capacity resources is starved.
class MaxMinRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinRandom, FeasibleAndPositive) {
  Rng rng(GetParam());
  ResourcePool pool;
  const std::size_t resource_count = 8;
  for (std::size_t r = 0; r < resource_count; ++r)
    pool.add("r" + std::to_string(r), rng.uniform(10.0, 1000.0));

  std::vector<FlowSpec> flows(30);
  for (auto& flow : flows) {
    const auto uses = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t u = 0; u < uses; ++u) {
      ResourceUsage use;
      use.resource = static_cast<ResourceId>(
          rng.uniform_int(0, resource_count - 1));
      use.weight = rng.uniform(0.5, 16.0);
      use.consumption_factor = rng.uniform(1.0, 2.0);
      flow.usage.push_back(use);
    }
    flow.cap_Bps = rng.uniform(1.0, 2000.0);
  }

  const auto rates = maxmin_allocate(pool, flows);
  ASSERT_EQ(rates.size(), flows.size());

  std::vector<double> load(pool.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_GE(rates[f], 0.0);
    EXPECT_LE(rates[f], flows[f].cap_Bps * (1.0 + 1e-9));
    EXPECT_GT(rates[f], 0.0);  // All capacities positive here.
    for (const auto& use : flows[f].usage)
      load[use.resource] += rates[f] * use.consumption_factor;
  }
  for (std::size_t r = 0; r < pool.size(); ++r)
    EXPECT_LE(load[r], pool.capacity(static_cast<ResourceId>(r)) * (1.0 + 1e-9))
        << "resource " << r;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinRandom,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 5ULL, 8ULL, 13ULL,
                                           21ULL, 34ULL, 55ULL, 89ULL));

// --- Oracle: the component-wise solver against the global one -----------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t f = 0; f < got.size(); ++f)
    EXPECT_TRUE(same_bits(got[f], want[f]))
        << "flow " << f << ": " << got[f] << " vs oracle " << want[f];
}

struct Instance {
  ResourcePool pool;
  std::vector<FlowSpec> flows;
};

enum class Shape {
  kProduction,  ///< Many lone one-resource flows + a few 7-use transfers.
  kDense,       ///< Random uses over few resources: one big component.
  kTies,        ///< Identical capacities, weights and caps: exact ties.
  kConsumption, ///< Consumption factors != 1 and mixed weights.
  kZeroCapacity,///< Some disabled (capacity 0) resources.
  kEmptyUsage,  ///< Some flows cross no resource.
};

/// Random instances of each shape. `unit` forces weight = consumption = 1
/// (classic max-min, where the certificate below holds exactly).
Instance make_instance(Shape shape, std::uint64_t seed, bool unit = false) {
  Rng rng(seed);
  Instance inst;
  auto weight = [&](double lo, double hi) {
    return unit ? 1.0 : rng.uniform(lo, hi);
  };
  auto factor = [&](double lo, double hi) {
    return unit ? 1.0 : rng.uniform(lo, hi);
  };
  auto add_resources = [&](std::size_t n, double lo, double hi) {
    for (std::size_t r = 0; r < n; ++r)
      inst.pool.add("r" + std::to_string(r), rng.uniform(lo, hi));
  };
  auto random_flow = [&](std::size_t resources, std::int64_t max_uses) {
    FlowSpec flow;
    const auto uses = rng.uniform_int(1, max_uses);
    for (std::int64_t u = 0; u < uses; ++u)
      flow.usage.push_back(
          {static_cast<ResourceId>(rng.uniform_int(0, resources - 1)),
           weight(0.5, 16.0), factor(1.0, 2.0)});
    flow.cap_Bps = rng.uniform(1.0, 2000.0);
    return flow;
  };

  switch (shape) {
    case Shape::kProduction: {
      // 40 endpoints x 5 resources, then WAN paths; transfers among the
      // first 6 endpoints, backgrounds alone on other resources (a few
      // land on a transfer's resource or share one).
      add_resources(200, 1e8, 2e9);
      for (int t = 0; t < 10; ++t) {
        const auto src = rng.uniform_int(0, 5);
        const auto dst = (src + 1 + rng.uniform_int(0, 4)) % 6;
        const double procs = unit ? 1.0 : static_cast<double>(rng.uniform_int(1, 8));
        const double streams = unit ? 1.0 : procs * 4.0;
        const double cpu = factor(1.0, 1.5);
        const auto wan = inst.pool.add("wan", rng.uniform(1e9, 1e10));
        auto id = [](std::int64_t endpoint, int component) {
          return static_cast<ResourceId>(endpoint * 5 + component);
        };
        FlowSpec flow;
        flow.usage = {{id(src, 0), procs, 1.0},   {id(src, 4), procs, cpu},
                      {id(src, 3), streams, 1.0}, {wan, streams, 1.0},
                      {id(dst, 2), streams, 1.0}, {id(dst, 4), procs, cpu},
                      {id(dst, 1), procs, 1.0}};
        flow.cap_Bps = rng.uniform(1e8, 2e9);
        inst.flows.push_back(std::move(flow));
      }
      for (int b = 0; b < 50; ++b) {
        FlowSpec flow;
        flow.usage = {{static_cast<ResourceId>(rng.uniform_int(25, 199)),
                       weight(1.0, 256.0), 1.0}};
        flow.cap_Bps = rng.uniform(1e7, 1e9);
        inst.flows.push_back(std::move(flow));
      }
      // Interleave: transfers and backgrounds in random order.
      for (std::size_t f = inst.flows.size(); f > 1; --f)
        std::swap(inst.flows[f - 1],
                  inst.flows[static_cast<std::size_t>(rng.uniform_int(0, f - 1))]);
      break;
    }
    case Shape::kDense:
      add_resources(8, 10.0, 1000.0);
      for (int f = 0; f < 40; ++f) inst.flows.push_back(random_flow(8, 6));
      break;
    case Shape::kTies:
      for (int r = 0; r < 6; ++r) inst.pool.add("r", 120.0);
      for (int f = 0; f < 30; ++f) {
        FlowSpec flow;
        const auto uses = rng.uniform_int(1, 3);
        for (std::int64_t u = 0; u < uses; ++u)
          flow.usage.push_back(
              {static_cast<ResourceId>(rng.uniform_int(0, 5)),
               unit ? 1.0 : static_cast<double>(rng.uniform_int(1, 2)), 1.0});
        const double caps[] = {10.0, 20.0, 40.0, 1e15};
        flow.cap_Bps = caps[rng.uniform_int(0, 3)];
        inst.flows.push_back(std::move(flow));
      }
      break;
    case Shape::kConsumption:
      add_resources(12, 10.0, 1000.0);
      for (int f = 0; f < 30; ++f) {
        auto flow = random_flow(12, 4);
        for (auto& use : flow.usage) use.consumption_factor = factor(0.25, 4.0);
        inst.flows.push_back(std::move(flow));
      }
      break;
    case Shape::kZeroCapacity:
      add_resources(10, 10.0, 1000.0);
      inst.pool.set_capacity(2, 0.0);
      inst.pool.set_capacity(7, 0.0);
      for (int f = 0; f < 30; ++f) inst.flows.push_back(random_flow(10, 3));
      break;
    case Shape::kEmptyUsage:
      add_resources(10, 10.0, 1000.0);
      for (int f = 0; f < 30; ++f) {
        auto flow = random_flow(10, 3);
        if (rng.bernoulli(0.25)) flow.usage.clear();
        inst.flows.push_back(std::move(flow));
      }
      break;
  }
  return inst;
}

constexpr Shape kShapes[] = {Shape::kProduction,   Shape::kDense,
                             Shape::kTies,         Shape::kConsumption,
                             Shape::kZeroCapacity, Shape::kEmptyUsage};

TEST(MaxMinOracle, BitIdenticalToGlobalSolve) {
  for (const Shape shape : kShapes)
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
      for (const bool unit : {false, true}) {
        SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                        << " seed " << seed << " unit " << unit);
        const auto inst = make_instance(shape, seed, unit);
        expect_bit_identical(maxmin_allocate(inst.pool, inst.flows),
                             oracle::reference_maxmin_allocate(inst.pool,
                                                               inst.flows));
      }
}

// Max-min certificate (classic, unit weights and consumption): every flow
// is at its cap, or crosses a saturated resource on which no other flow
// gets more.
TEST(MaxMinOracle, UnitWeightCertificate) {
  constexpr double kTol = 1e-9;
  for (const Shape shape : kShapes)
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << " seed " << seed);
      const auto inst = make_instance(shape, seed, /*unit=*/true);
      const auto rates = maxmin_allocate(inst.pool, inst.flows);
      std::vector<double> load(inst.pool.size(), 0.0);
      std::vector<double> top(inst.pool.size(), 0.0);
      for (std::size_t f = 0; f < inst.flows.size(); ++f)
        for (const auto& use : inst.flows[f].usage) {
          load[use.resource] += rates[f];
          top[use.resource] = std::max(top[use.resource], rates[f]);
        }
      for (std::size_t f = 0; f < inst.flows.size(); ++f) {
        const auto& flow = inst.flows[f];
        bool certified = rates[f] >= flow.cap_Bps * (1.0 - kTol);
        for (const auto& use : flow.usage) {
          const double capacity = inst.pool.capacity(use.resource);
          const bool saturated = load[use.resource] >= capacity * (1.0 - kTol);
          if (saturated && rates[f] >= top[use.resource] * (1.0 - kTol))
            certified = true;
        }
        EXPECT_TRUE(certified) << "flow " << f << " rate " << rates[f];
      }
    }
}

// The solver freezes the flow with the smallest *rate*, not the smallest
// per-weight level, so with unequal weight/consumption ratios it is not
// exact weighted max-min: here f freezes at 10 before g settles at 50 on
// s, and r ends unsaturated. Pinned so that a change of that semantics
// (which would move every simulated rate) is deliberate.
TEST(MaxMinOracle, WeightedFreezeOrderIsByRate) {
  ResourcePool pool;
  const auto r = pool.add("r", 110.0);
  const auto s = pool.add("s", 50.0);
  FlowSpec f, g;
  f.usage = {{r, 1.0, 1.0}};
  g.usage = {{r, 10.0, 1.0}, {s, 10.0, 1.0}};
  const auto rates = maxmin_allocate(pool, {f, g});
  EXPECT_EQ(rates[0], 10.0);
  EXPECT_EQ(rates[1], 50.0);
}

// Incremental re-solve: a flow table driven through MaxMinSolver's
// join/leave API the way the simulator drives it. The table keeps the flows
// in flow order with sparse order keys (so a join can land between two
// flows), mirrors the solver's dirty marks, and runs the simulator's two
// passes (the second re-caps the selected flows from their first-pass
// rate). check() then compares, bit for bit, every rate and every
// per-resource load with a from-scratch oracle solve, and the selected set
// with the flows of exactly the components that hold a resource dirtied
// since the previous plan (plus every flow with empty usage).
class IncrementalTable {
 public:
  explicit IncrementalTable(ResourcePool& pool) : pool_(pool) {}

  struct Flow {
    FlowSpec spec;
    std::uint64_t key = 0;
    MaxMinSolver::FlowId id = 0;
  };

  std::size_t size() const { return flows_.size(); }
  const Flow& operator[](std::size_t k) const { return flows_[k]; }

  /// Join `spec` at slot `at` of the flow order.
  void join(FlowSpec spec, std::size_t at) {
    const std::uint64_t lo = at == 0 ? 0 : flows_[at - 1].key;
    const std::uint64_t hi =
        at == flows_.size() ? lo + (std::uint64_t{1} << 33) : flows_[at].key;
    ASSERT_GE(hi - lo, 2u) << "order keys exhausted";
    Flow flow{std::move(spec), lo + (hi - lo) / 2, 0};
    flow.id = solver_.join(pool_, flow.spec.usage, flow.spec.cap_Bps, flow.key);
    touch(flow.spec);
    flows_.insert(flows_.begin() + static_cast<std::ptrdiff_t>(at),
                  std::move(flow));
  }

  /// Leave, the order of the others kept. Returns the departed spec.
  FlowSpec leave(std::size_t k) {
    solver_.leave(flows_[k].id);
    touch(flows_[k].spec);
    FlowSpec spec = std::move(flows_[k].spec);
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(k));
    return spec;
  }

  /// Leave; the last flow takes the departed one's place in flow order.
  FlowSpec swap_remove(std::size_t k) {
    const std::uint64_t key = flows_[k].key;
    FlowSpec spec = leave(k);
    if (k < flows_.size()) {
      Flow moved = std::move(flows_.back());
      flows_.pop_back();
      moved.key = key;
      solver_.reorder(moved.id, key);
      touch(moved.spec);
      flows_.insert(flows_.begin() + static_cast<std::ptrdiff_t>(k),
                    std::move(moved));
    }
    return spec;
  }

  /// Two flows trade places in flow order.
  void trade(std::size_t a, std::size_t b) {
    std::swap(flows_[a].key, flows_[b].key);
    solver_.reorder(flows_[a].id, flows_[a].key);
    solver_.reorder(flows_[b].id, flows_[b].key);
    touch(flows_[a].spec);
    touch(flows_[b].spec);
    std::swap(flows_[a], flows_[b]);
  }

  /// A new cap: the flow leaves and rejoins at its place.
  void recap(std::size_t k, double cap_Bps) {
    FlowSpec spec = leave(k);
    spec.cap_Bps = cap_Bps;
    join(std::move(spec), k);
  }

  void set_capacity(ResourceId r, double capacity_Bps) {
    pool_.set_capacity(r, capacity_Bps);
    solver_.mark_dirty(r);
    dirty_.push_back(r);
  }

  /// Plan and solve both passes, then compare against the oracle.
  void step() {
    const auto expected = expected_selection();
    offered_ += flows_.size();
    const std::size_t visited = solver_.plan();
    resolved_ += visited;
    std::vector<MaxMinSolver::FlowId> selected(solver_.selected().begin(),
                                               solver_.selected().end());
    EXPECT_EQ(visited, selected.size());
    std::sort(selected.begin(), selected.end());
    EXPECT_EQ(selected, expected) << "selected flows";
    dirty_.clear();

    solver_.solve(pool_);
    for (const auto id : solver_.selected())
      solver_.set_cap(id, second_cap(spec_of(id), solver_.rate(id)));
    solver_.solve(pool_);

    std::vector<FlowSpec> specs;
    for (const auto& flow : flows_) specs.push_back(flow.spec);
    const auto first = oracle::reference_maxmin_allocate(pool_, specs);
    for (std::size_t f = 0; f < specs.size(); ++f)
      specs[f].cap_Bps = second_cap(specs[f], first[f]);
    const auto want = oracle::reference_maxmin_allocate(pool_, specs);
    std::vector<double> got;
    for (const auto& flow : flows_) got.push_back(solver_.rate(flow.id));
    expect_bit_identical(got, want);

    std::vector<double> load(pool_.size(), 0.0);
    for (std::size_t f = 0; f < specs.size(); ++f)
      for (const auto& use : specs[f].usage)
        load[use.resource] += want[f] * use.consumption_factor;
    for (std::size_t r = 0; r < pool_.size(); ++r)
      EXPECT_TRUE(same_bits(solver_.load(static_cast<ResourceId>(r)), load[r]))
          << "load of resource " << r << ": "
          << solver_.load(static_cast<ResourceId>(r)) << " vs oracle "
          << load[r];
  }

  std::uint64_t offered() const { return offered_; }
  std::uint64_t resolved() const { return resolved_; }

 private:
  static double second_cap(const FlowSpec& spec, double first_rate) {
    return std::max(1.0, std::min(spec.cap_Bps, 0.75 * first_rate + 1e7));
  }

  void touch(const FlowSpec& spec) {
    for (const auto& use : spec.usage) dirty_.push_back(use.resource);
  }

  const FlowSpec& spec_of(MaxMinSolver::FlowId id) const {
    return std::find_if(flows_.begin(), flows_.end(),
                        [id](const Flow& flow) { return flow.id == id; })
        ->spec;
  }

  /// From scratch: union the live flows over shared resources and keep the
  /// components that hold a dirty resource, plus flows with empty usage.
  std::vector<MaxMinSolver::FlowId> expected_selection() const {
    std::vector<std::size_t> parent(flows_.size());
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    const auto find = [&parent](std::size_t f) {
      while (parent[f] != f) f = parent[f] = parent[parent[f]];
      return f;
    };
    std::vector<std::size_t> first(pool_.size(), flows_.size());
    for (std::size_t f = 0; f < flows_.size(); ++f)
      for (const auto& use : flows_[f].spec.usage) {
        if (first[use.resource] == flows_.size())
          first[use.resource] = f;
        else
          parent[find(f)] = find(first[use.resource]);
      }
    std::vector<bool> dirty_root(flows_.size(), false);
    for (const ResourceId r : dirty_)
      if (first[r] != flows_.size()) dirty_root[find(first[r])] = true;
    std::vector<MaxMinSolver::FlowId> expected;
    for (std::size_t f = 0; f < flows_.size(); ++f)
      if (flows_[f].spec.usage.empty() || dirty_root[find(f)])
        expected.push_back(flows_[f].id);
    std::sort(expected.begin(), expected.end());
    return expected;
  }

  ResourcePool& pool_;
  MaxMinSolver solver_;
  std::vector<Flow> flows_;
  std::vector<ResourceId> dirty_;
  std::uint64_t offered_ = 0;
  std::uint64_t resolved_ = 0;
};

// The production shape: joins anywhere in the order, leaves, swap-removes,
// capacity and cap changes, and flows trading places.
class IncrementalSequence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSequence, MatchesFromScratchAfterEveryStep) {
  Rng rng(GetParam());
  auto inst = make_instance(Shape::kProduction, GetParam());
  ResourcePool& pool = inst.pool;
  IncrementalTable table(pool);
  for (auto& spec : inst.flows) table.join(std::move(spec), table.size());
  std::vector<FlowSpec> spares;  // Flows that left, to rejoin later.

  for (int step = 0; step < 300; ++step) {
    const auto action = step == 0 ? -1 : rng.uniform_int(0, 5);
    const auto pick = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, table.size() - 1));
    };
    if (action == 0 && !spares.empty()) {  // Join at a random slot.
      const auto at = static_cast<std::size_t>(rng.uniform_int(0, table.size()));
      table.join(std::move(spares.back()), at);
      spares.pop_back();
    } else if (action == 1 && table.size() > 2) {  // Leave, order kept.
      spares.push_back(table.leave(pick()));
    } else if (action == 2 && table.size() > 2) {  // Swap-remove.
      spares.push_back(table.swap_remove(pick()));
    } else if (action == 3) {  // Capacity change (or a no-op rewrite).
      const auto r = static_cast<ResourceId>(rng.uniform_int(0, pool.size() - 1));
      table.set_capacity(r, rng.bernoulli(0.1) ? 0.0 : rng.uniform(1e8, 2e9));
    } else if (action == 4) {  // Demand (cap) change.
      const auto k = pick();
      table.recap(k, rng.uniform(1e7, 2e9));
    } else if (action == 5) {  // Two flows trade places.
      const auto a = pick(), b = pick();
      if (a != b) table.trade(a, b);
    }
    SCOPED_TRACE(testing::Message() << "step " << step << " action " << action);
    table.step();
    if (HasFailure()) return;
  }
  EXPECT_LT(table.resolved(), table.offered());  // Clean components were skipped.
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSequence,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL,
                                           7ULL, 8ULL));

// The index's edge cases: transfers that join and leave on shared
// resources, background toggles inserted in the middle of the order, flows
// with empty usage, and resources drained of their last flow (whose load
// must then read 0, bit for bit).
class IncrementalIndex : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalIndex, JoinLeaveMatchesFromScratchWithLoads) {
  Rng rng(GetParam());
  ResourcePool pool;
  for (int r = 0; r < 16; ++r)
    pool.add("r" + std::to_string(r), rng.uniform(1e8, 2e9));
  // Resources 0-7 are shared by transfers; 8-15 carry one background each.
  const auto transfer = [&] {
    FlowSpec spec;
    const auto uses = rng.uniform_int(2, 5);
    for (std::int64_t u = 0; u < uses; ++u)
      spec.usage.push_back({static_cast<ResourceId>(rng.uniform_int(0, 7)),
                            static_cast<double>(rng.uniform_int(1, 8)),
                            rng.uniform(1.0, 1.5)});
    spec.cap_Bps = rng.uniform(1e8, 2e9);
    return spec;
  };
  const auto background = [&](ResourceId r) {
    FlowSpec spec;
    spec.usage = {{r, rng.uniform(1.0, 256.0), 1.0}};
    spec.cap_Bps = rng.uniform(1e7, 1e9);
    return spec;
  };
  const auto unbound = [&] {
    FlowSpec spec;
    spec.cap_Bps = rng.uniform(1e7, 1e9);
    return spec;
  };

  IncrementalTable table(pool);
  for (int t = 0; t < 6; ++t) table.join(transfer(), table.size());
  for (ResourceId r = 8; r < 16; ++r)
    if (rng.bernoulli(0.5)) table.join(background(r), table.size());
  table.join(unbound(), rng.bernoulli(0.5) ? 0 : table.size());

  const auto pick = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, table.size() - 1));
  };
  const auto slot = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, table.size()));
  };
  for (int step = 0; step < 300; ++step) {
    const auto action = step == 0 ? -1 : rng.uniform_int(0, 7);
    if (action == 0) {  // A transfer joins anywhere in the order.
      table.join(transfer(), slot());
    } else if (action == 1 && table.size() > 3) {  // Leave, order kept.
      table.leave(pick());
    } else if (action == 2 && table.size() > 3) {  // Swap-remove.
      table.swap_remove(pick());
    } else if (action == 3) {  // A background toggles, mid-order.
      const auto r = static_cast<ResourceId>(rng.uniform_int(8, 15));
      std::size_t on = table.size();
      for (std::size_t k = 0; k < table.size(); ++k)
        if (table[k].spec.usage.size() == 1 &&
            table[k].spec.usage[0].resource == r)
          on = k;
      if (on < table.size())
        table.leave(on);  // Its resource loses its last flow.
      else
        table.join(background(r), slot());
    } else if (action == 4) {  // A flow with empty usage joins or leaves.
      std::size_t found = table.size();
      for (std::size_t k = 0; k < table.size(); ++k)
        if (table[k].spec.usage.empty()) found = k;
      if (found < table.size() && rng.bernoulli(0.5))
        table.leave(found);
      else
        table.join(unbound(), slot());
    } else if (action == 5) {  // Drain a shared resource.
      const auto r = static_cast<ResourceId>(rng.uniform_int(0, 7));
      for (std::size_t k = table.size(); k-- > 0;)
        for (const auto& use : table[k].spec.usage)
          if (use.resource == r) {
            table.leave(k);
            break;
          }
    } else if (action == 6) {  // Capacity change.
      const auto r = static_cast<ResourceId>(rng.uniform_int(0, 15));
      table.set_capacity(r, rng.bernoulli(0.1) ? 0.0 : rng.uniform(1e8, 2e9));
    } else if (action == 7 && table.size() > 0) {  // Cap change.
      const auto k = pick();
      table.recap(k, rng.uniform(1e7, 2e9));
    }
    SCOPED_TRACE(testing::Message() << "step " << step << " action " << action);
    table.step();
    if (HasFailure()) return;
  }
  EXPECT_LT(table.resolved(), table.offered());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalIndex,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL,
                                           7ULL, 8ULL));

TEST(MaxMinSolver, ChecksUsageAtJoinAndLivenessAtLeave) {
  ResourcePool pool;
  const auto r = pool.add("r", 10.0);
  MaxMinSolver solver;
  const ResourceUsage bad[] = {{r, 1.0, 1.0}, {r, 1.0, 0.0}};
  EXPECT_THROW(solver.join(pool, bad, 5.0, 0), xfl::ContractViolation);
  EXPECT_EQ(solver.flow_count(), 0u);  // Nothing changed.
  EXPECT_EQ(solver.plan(), 0u);
  const ResourceUsage good[] = {{r, 1.0, 1.0}};
  const auto id = solver.join(pool, good, 5.0, 0);
  EXPECT_EQ(solver.plan(), 1u);
  solver.solve(pool);
  EXPECT_EQ(solver.rate(id), 5.0);
  EXPECT_EQ(solver.load(r), 5.0);
  solver.leave(id);
  EXPECT_THROW(solver.leave(id), xfl::ContractViolation);  // Already gone.
  EXPECT_EQ(solver.plan(), 0u);
  solver.solve(pool);
  EXPECT_EQ(solver.load(r), 0.0);  // Lost its last flow.
}

}  // namespace
}  // namespace xfl::sim
