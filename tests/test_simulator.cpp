#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "endpoint/endpoint.hpp"
#include "net/site.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

namespace xfl::sim {
namespace {

/// Two-DTN fixture ~1,200 km apart (ANL/BNL-like).
struct TwoSiteWorld {
  net::SiteCatalog sites;
  endpoint::EndpointCatalog endpoints;

  TwoSiteWorld() {
    sites.add({"A", {41.708, -87.983}});
    sites.add({"B", {40.873, -72.872}});
    endpoints.add(endpoint::make_dtn("a-dtn", 0));
    endpoints.add(endpoint::make_dtn("b-dtn", 1));
  }
};

TransferRequest make_request(std::uint64_t id, double submit, double bytes,
                             std::uint64_t files = 10) {
  TransferRequest req;
  req.id = id;
  req.src = 0;
  req.dst = 1;
  req.submit_s = submit;
  req.bytes = bytes;
  req.files = files;
  req.dirs = 1;
  req.params.concurrency = 4;
  req.params.parallelism = 4;
  return req;
}

SimConfig quiet_config() {
  SimConfig config;
  config.enable_faults = false;
  config.seed = 99;
  return config;
}

TEST(Simulator, LoneTransferCompletesAtSubsystemBound) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  sim.submit(make_request(1, 0.0, 50.0 * kGB));
  const auto result = sim.run();
  ASSERT_EQ(result.log.size(), 1u);
  const auto& record = result.log[0];
  // Destination disk write (7.8 Gb/s = 975 MB/s) is the bottleneck; the
  // logged rate is slightly below it because duration includes startup.
  const double rate = record.rate_Bps();
  EXPECT_LT(rate, gbit(7.8));
  EXPECT_GT(rate, 0.85 * gbit(7.8));
}

TEST(Simulator, AllSubmittedTransfersAreLogged) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  for (int i = 0; i < 20; ++i)
    sim.submit(make_request(static_cast<std::uint64_t>(i + 1), i * 7.0, 2.0 * kGB));
  const auto result = sim.run();
  EXPECT_EQ(result.log.size(), 20u);
}

TEST(Simulator, LogRecordsPreserveRequestFields) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  auto req = make_request(77, 5.0, 1.0 * kGB, 42);
  req.dirs = 7;
  req.params.concurrency = 8;
  req.params.parallelism = 2;
  sim.submit(req);
  const auto result = sim.run();
  ASSERT_EQ(result.log.size(), 1u);
  const auto& record = result.log[0];
  EXPECT_EQ(record.id, 77u);
  EXPECT_DOUBLE_EQ(record.start_s, 5.0);
  EXPECT_GT(record.end_s, record.start_s);
  EXPECT_DOUBLE_EQ(record.bytes, 1.0 * kGB);
  EXPECT_EQ(record.files, 42u);
  EXPECT_EQ(record.dirs, 7u);
  EXPECT_EQ(record.concurrency, 8u);
  EXPECT_EQ(record.parallelism, 2u);
  EXPECT_EQ(record.src_type, endpoint::EndpointType::kServer);
}

TEST(Simulator, CompetingTransfersSlowEachOther) {
  TwoSiteWorld world;
  // Lone benchmark.
  Simulator lone(world.sites, world.endpoints, quiet_config());
  lone.submit(make_request(1, 0.0, 20.0 * kGB));
  const double lone_rate = lone.run().log[0].rate_Bps();

  // Four simultaneous transfers on the same edge.
  Simulator busy(world.sites, world.endpoints, quiet_config());
  for (int i = 0; i < 4; ++i)
    busy.submit(make_request(static_cast<std::uint64_t>(i + 1), 0.0, 20.0 * kGB));
  const auto result = busy.run();
  for (const auto& record : result.log.records()) {
    EXPECT_LT(record.rate_Bps(), 0.5 * lone_rate);
    EXPECT_GT(record.rate_Bps(), 0.1 * lone_rate);
  }
}

TEST(Simulator, SmallFileTransferSlowerThanBigFile) {
  TwoSiteWorld world;
  Simulator big(world.sites, world.endpoints, quiet_config());
  big.submit(make_request(1, 0.0, 10.0 * kGB, 10));  // 1 GB files.
  const double big_rate = big.run().log[0].rate_Bps();

  Simulator small(world.sites, world.endpoints, quiet_config());
  small.submit(make_request(1, 0.0, 10.0 * kGB, 10000));  // 1 MB files.
  const double small_rate = small.run().log[0].rate_Bps();
  EXPECT_LT(small_rate, 0.5 * big_rate);
}

TEST(Simulator, TinyTransferDominatedByStartup) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  sim.submit(make_request(1, 0.0, 1.0, 1));  // One byte.
  const auto result = sim.run();
  ASSERT_EQ(result.log.size(), 1u);
  EXPECT_GT(result.log[0].duration_s(), 1.0);     // Startup cost dominates.
  EXPECT_LT(result.log[0].rate_Bps(), 10.0);      // Effectively zero rate.
}

TEST(Simulator, MemToMemProbeFasterThanDiskToDisk) {
  TwoSiteWorld world;
  Simulator disk(world.sites, world.endpoints, quiet_config());
  auto disk_req = make_request(1, 0.0, 50.0 * kGB);
  sim::TransferRequest mem_req = disk_req;
  mem_req.use_src_disk = false;
  mem_req.use_dst_disk = false;
  disk.submit(disk_req);
  const double disk_rate = disk.run().log[0].rate_Bps();

  Simulator mem(world.sites, world.endpoints, quiet_config());
  mem.submit(mem_req);
  const double mem_rate = mem.run().log[0].rate_Bps();
  // Disk-to-disk is write-limited (7.8 Gb/s); mem-to-mem can use the full
  // path (10 Gb/s NIC / WAN).
  EXPECT_GT(mem_rate, disk_rate);
}

TEST(Simulator, BackgroundLoadReducesRate) {
  TwoSiteWorld world;
  Simulator clean(world.sites, world.endpoints, quiet_config());
  clean.submit(make_request(1, 0.0, 20.0 * kGB));
  const double clean_rate = clean.run().log[0].rate_Bps();

  Simulator loaded(world.sites, world.endpoints, quiet_config());
  BackgroundSpec bg;
  bg.endpoint = 1;
  bg.component = Component::kDiskWrite;
  bg.demand_lo_Bps = 0.6 * world.endpoints[1].disk.write_Bps;
  bg.demand_hi_Bps = 0.6 * world.endpoints[1].disk.write_Bps;
  bg.mean_on_s = 1.0e9;   // Permanently on...
  bg.mean_off_s = 1.0e-3; // ...after the first toggle.
  bg.weight = 16.0;
  loaded.add_background(bg);
  loaded.submit(make_request(1, 1000.0, 20.0 * kGB));
  const double loaded_rate = loaded.run().log[0].rate_Bps();
  EXPECT_LT(loaded_rate, 0.85 * clean_rate);
}

TEST(Simulator, FaultsLoggedUnderHeavyLoadPolicy) {
  TwoSiteWorld world;
  SimConfig config;
  config.seed = 7;
  config.enable_faults = true;
  config.fault_policy.base_rate_per_s = 0.05;  // Absurdly faulty system.
  config.fault_policy.retry_delay_s = 1.0;
  Simulator sim(world.sites, world.endpoints, config);
  for (int i = 0; i < 5; ++i)
    sim.submit(make_request(static_cast<std::uint64_t>(i + 1), 0.0, 20.0 * kGB));
  const auto result = sim.run();
  std::uint32_t total_faults = 0;
  for (const auto& record : result.log.records()) total_faults += record.faults;
  EXPECT_GT(total_faults, 0u);
}

TEST(Simulator, FaultsExtendDuration) {
  TwoSiteWorld world;
  Simulator clean(world.sites, world.endpoints, quiet_config());
  clean.submit(make_request(1, 0.0, 20.0 * kGB));
  const double clean_duration = clean.run().log[0].duration_s();

  SimConfig faulty = quiet_config();
  faulty.enable_faults = true;
  faulty.fault_policy.base_rate_per_s = 0.05;
  faulty.fault_policy.retry_delay_s = 10.0;
  Simulator sim(world.sites, world.endpoints, faulty);
  sim.submit(make_request(1, 0.0, 20.0 * kGB));
  const auto result = sim.run();
  if (result.log[0].faults > 0) {
    EXPECT_GT(result.log[0].duration_s(), clean_duration);
  }
}

TEST(Simulator, SamplingProducesOrderedSamples) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  sim.enable_sampling(1, 5.0);
  for (int i = 0; i < 3; ++i)
    sim.submit(make_request(static_cast<std::uint64_t>(i + 1), i * 20.0, 20.0 * kGB));
  const auto result = sim.run();
  const auto it = result.samples.find(1);
  ASSERT_NE(it, result.samples.end());
  ASSERT_GT(it->second.size(), 2u);
  double previous = -1.0;
  bool saw_instances = false;
  for (const auto& sample : it->second) {
    EXPECT_GT(sample.time_s, previous);
    previous = sample.time_s;
    EXPECT_GE(sample.cpu_load, 0.0);
    EXPECT_LE(sample.cpu_load, 1.0);
    if (sample.gridftp_instances > 0.0) saw_instances = true;
  }
  EXPECT_TRUE(saw_instances);
}

TEST(Simulator, SampleRatesReflectIncomingTraffic) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  sim.enable_sampling(1, 2.0);
  sim.submit(make_request(1, 0.0, 50.0 * kGB));
  const auto result = sim.run();
  double max_in = 0.0;
  for (const auto& sample : result.samples.at(1))
    max_in = std::max(max_in, sample.in_Bps);
  EXPECT_GT(max_in, 0.5 * gbit(7.8));
}

TEST(Simulator, RejectsBadUsagePatterns) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  TransferRequest self_loop = make_request(1, 0.0, 1.0);
  self_loop.dst = self_loop.src;
  EXPECT_THROW(sim.submit(self_loop), xfl::ContractViolation);
  TransferRequest out_of_range = make_request(2, 0.0, 1.0);
  out_of_range.dst = 9;
  EXPECT_THROW(sim.submit(out_of_range), xfl::ContractViolation);
}

TEST(Simulator, RunTwiceRejected) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  sim.submit(make_request(1, 0.0, 1.0 * kGB));
  sim.run();
  EXPECT_THROW(sim.run(), xfl::ContractViolation);
}

TEST(Simulator, DeterministicAcrossRuns) {
  TwoSiteWorld world;
  auto run_once = [&world]() {
    SimConfig config;
    config.seed = 1234;
    Simulator sim(world.sites, world.endpoints, config);
    for (int i = 0; i < 10; ++i)
      sim.submit(make_request(static_cast<std::uint64_t>(i + 1), i * 13.0,
                              5.0 * kGB));
    return sim.run();
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.log.size(), second.log.size());
  for (std::size_t i = 0; i < first.log.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.log[i].end_s, second.log[i].end_s);
    EXPECT_EQ(first.log[i].faults, second.log[i].faults);
  }
}

TEST(Simulator, ReallocationCountersShowPartialResolve) {
  // Transfers on disjoint endpoint pairs, and background processes alone
  // on their resource (a few hours of the production preset), form
  // separate max-min components: an event re-solves
  // only the components it touched, so fewer flows are re-solved than are
  // offered. The counters are added once, at the end of run().
  auto& reallocations = obs::counter("sim.reallocations");
  auto& offered = obs::counter("sim.flows_offered");
  auto& resolved = obs::counter("sim.flows_resolved");
  const auto reallocations_before = reallocations.value();
  const auto offered_before = offered.value();
  const auto resolved_before = resolved.value();

  ProductionConfig config;
  config.duration_s = 4.0 * 3600.0;
  const auto scenario = make_production(config);
  const auto result = scenario.run();
  ASSERT_EQ(result.log.size(), scenario.workload.size());

  const auto reallocation_count = reallocations.value() - reallocations_before;
  const auto offered_count = offered.value() - offered_before;
  const auto resolved_count = resolved.value() - resolved_before;
  EXPECT_GT(reallocation_count, 0u);
  EXPECT_LE(reallocation_count, result.stats.events + 1);
  EXPECT_GT(resolved_count, 0u);
  EXPECT_LT(resolved_count, offered_count);
}

TEST(Simulator, ReallocationVisitsOnlyDirtyComponents) {
  // The planner walks outward from the dirty resources over the solver's
  // resource -> flow index, so the flows it touches are exactly the flows
  // it re-solves: far fewer than the flows in the table. (A planner that
  // scans the whole table would visit every offered flow.)
  auto& offered = obs::counter("sim.flows_offered");
  auto& visited = obs::counter("sim.flows_visited");
  auto& resolved = obs::counter("sim.flows_resolved");
  const auto offered_before = offered.value();
  const auto visited_before = visited.value();
  const auto resolved_before = resolved.value();

  ProductionConfig config;
  config.duration_s = 4.0 * 3600.0;
  const auto result = make_production(config).run();
  ASSERT_GT(result.log.size(), 0u);

  const auto offered_count = offered.value() - offered_before;
  const auto visited_count = visited.value() - visited_before;
  const auto resolved_count = resolved.value() - resolved_before;
  EXPECT_GT(visited_count, 0u);
  EXPECT_EQ(visited_count, resolved_count);
  EXPECT_LT(visited_count * 4, offered_count)
      << visited_count << " of " << offered_count << " offered flows visited";
}

TEST(Simulator, ByteConservationUnderContention) {
  // Total bytes logged equals total bytes requested, faults or not.
  TwoSiteWorld world;
  SimConfig config;
  config.seed = 5;
  config.fault_policy.base_rate_per_s = 1e-3;
  Simulator sim(world.sites, world.endpoints, config);
  double requested = 0.0;
  for (int i = 0; i < 15; ++i) {
    const double bytes = (i + 1) * kGB;
    requested += bytes;
    sim.submit(make_request(static_cast<std::uint64_t>(i + 1), i * 3.0, bytes));
  }
  const auto result = sim.run();
  double logged = 0.0;
  for (const auto& record : result.log.records()) logged += record.bytes;
  EXPECT_DOUBLE_EQ(logged, requested);
}

TEST(Simulator, StatsAccounting) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  double requested = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double bytes = (i + 1) * kGB;
    requested += bytes;
    sim.submit(make_request(static_cast<std::uint64_t>(i + 1), i * 5.0, bytes));
  }
  const auto result = sim.run();
  EXPECT_GT(result.stats.events, 8u);
  EXPECT_DOUBLE_EQ(result.stats.total_bytes, requested);
  EXPECT_EQ(result.stats.total_faults, 0u);  // Faults disabled.
  EXPECT_GE(result.stats.peak_active, 1u);
  // Makespan equals the latest logged end time.
  double latest = 0.0;
  for (const auto& record : result.log.records())
    latest = std::max(latest, record.end_s);
  EXPECT_DOUBLE_EQ(result.stats.makespan_s, latest);
}

TEST(Simulator, StatsPeakActiveRespectsAdmissionCap) {
  TwoSiteWorld world;
  SimConfig config = quiet_config();
  config.max_active_per_endpoint = 3;
  Simulator sim(world.sites, world.endpoints, config);
  for (int i = 0; i < 20; ++i)
    sim.submit(make_request(static_cast<std::uint64_t>(i + 1), 0.0, 2.0 * kGB));
  const auto result = sim.run();
  EXPECT_LE(result.stats.peak_active, 3u);
  EXPECT_GT(result.stats.peak_queue, 0u);  // Overload definitely queued.
}

// Concurrency sweep: higher concurrency never violates the analytical
// bound, and every logged rate stays below the slowest subsystem.
class SimulatorBoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorBoundSweep, RatesRespectEquationOne) {
  TwoSiteWorld world;
  Simulator sim(world.sites, world.endpoints, quiet_config());
  const int transfers = GetParam();
  for (int i = 0; i < transfers; ++i)
    sim.submit(make_request(static_cast<std::uint64_t>(i + 1), i * 2.0, 10.0 * kGB));
  const auto result = sim.run();
  const double bound = std::min({world.endpoints[0].disk.read_Bps,
                                 world.endpoints[1].disk.write_Bps,
                                 world.endpoints[0].nic_out_Bps});
  for (const auto& record : result.log.records())
    EXPECT_LE(record.rate_Bps(), bound * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Load, SimulatorBoundSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace xfl::sim
