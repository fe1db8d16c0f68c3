#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace xfl::sim {
namespace {

std::vector<EdgeProfile> two_edges() {
  EdgeProfile a;
  a.src = 0;
  a.dst = 1;
  a.weight = 3.0;
  EdgeProfile b;
  b.src = 2;
  b.dst = 3;
  b.weight = 1.0;
  return {a, b};
}

TEST(Workload, GeneratesTimeOrderedRequests) {
  Rng rng(1);
  WorkloadConfig config;
  config.duration_s = 86400.0;
  config.arrivals_per_s = 0.01;
  const auto requests = generate_workload(two_edges(), config, rng);
  ASSERT_GT(requests.size(), 100u);
  for (std::size_t i = 1; i < requests.size(); ++i)
    EXPECT_GE(requests[i].submit_s, requests[i - 1].submit_s);
}

TEST(Workload, AllRequestsValid) {
  Rng rng(2);
  WorkloadConfig config;
  config.duration_s = 86400.0;
  config.arrivals_per_s = 0.01;
  for (const auto& req : generate_workload(two_edges(), config, rng)) {
    EXPECT_TRUE(req.valid());
    EXPECT_GE(req.bytes, kMinTransferBytes);
    EXPECT_LE(req.bytes, kMaxTransferBytes);
    EXPECT_GE(req.files, 1u);
    EXPECT_GE(req.dirs, 1u);
  }
}

TEST(Workload, IdsUniqueAndStartAtFirstId) {
  Rng rng(3);
  WorkloadConfig config;
  config.duration_s = 20000.0;
  config.arrivals_per_s = 0.01;
  config.first_id = 1000;
  const auto requests = generate_workload(two_edges(), config, rng);
  std::map<std::uint64_t, int> seen;
  std::uint64_t min_id = ~0ULL;
  for (const auto& req : requests) {
    seen[req.id]++;
    min_id = std::min(min_id, req.id);
  }
  EXPECT_EQ(min_id, 1000u);
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << id;
}

TEST(Workload, EdgeWeightsRespected) {
  Rng rng(4);
  WorkloadConfig config;
  config.duration_s = 400000.0;
  config.arrivals_per_s = 0.02;
  std::size_t heavy = 0, light = 0;
  for (const auto& req : generate_workload(two_edges(), config, rng)) {
    if (req.src == 0) ++heavy;
    if (req.src == 2) ++light;
  }
  // Weight 3:1 -> roughly 75/25 split (sessions add clumping noise).
  const double share =
      static_cast<double>(heavy) / static_cast<double>(heavy + light);
  EXPECT_NEAR(share, 0.75, 0.08);
}

TEST(Workload, SubmissionsWithinWindowPlusSessions) {
  Rng rng(5);
  WorkloadConfig config;
  config.duration_s = 10000.0;
  config.arrivals_per_s = 0.02;
  config.session_gap_s = 30.0;
  for (const auto& req : generate_workload(two_edges(), config, rng)) {
    // Session members can spill a little past the window but not far.
    EXPECT_LT(req.submit_s, config.duration_s + 100.0 * config.session_gap_s);
  }
}

TEST(Workload, TunablesMostlyEdgeDefaults) {
  Rng rng(6);
  auto edges = two_edges();
  edges[0].default_concurrency = 8;
  edges[0].default_parallelism = 2;
  edges[0].tunable_deviation_prob = 0.02;
  WorkloadConfig config;
  config.duration_s = 400000.0;
  config.arrivals_per_s = 0.02;
  std::size_t on_default = 0, total = 0;
  for (const auto& req : generate_workload(edges, config, rng)) {
    if (req.src != 0) continue;
    ++total;
    if (req.params.concurrency == 8 && req.params.parallelism == 2)
      ++on_default;
  }
  ASSERT_GT(total, 500u);
  EXPECT_GT(static_cast<double>(on_default) / static_cast<double>(total), 0.9);
}

TEST(Workload, FileCountConsistentWithSizes) {
  Rng rng(7);
  WorkloadConfig config;
  config.duration_s = 100000.0;
  config.arrivals_per_s = 0.02;
  for (const auto& req : generate_workload(two_edges(), config, rng)) {
    // files ~ bytes / mean_file with mean_file <= bytes, so
    // bytes / files should never exceed bytes.
    EXPECT_LE(req.bytes / static_cast<double>(req.files), req.bytes + 1.0);
  }
}

TEST(Workload, DeterministicGivenSeed) {
  WorkloadConfig config;
  config.duration_s = 50000.0;
  config.arrivals_per_s = 0.02;
  Rng rng1(42), rng2(42);
  const auto a = generate_workload(two_edges(), config, rng1);
  const auto b = generate_workload(two_edges(), config, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].submit_s, b[i].submit_s);
    EXPECT_DOUBLE_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].files, b[i].files);
  }
}

TEST(Workload, ContractChecks) {
  Rng rng(8);
  WorkloadConfig config;
  EXPECT_THROW(generate_workload({}, config, rng), xfl::ContractViolation);
  auto zero_weight = two_edges();
  zero_weight[0].weight = 0.0;
  zero_weight[1].weight = 0.0;
  EXPECT_THROW(generate_workload(zero_weight, config, rng),
               xfl::ContractViolation);
}


TEST(TemperOfferedLoad, ScalesOverloadedEdgesOnly) {
  endpoint::EndpointCatalog endpoints;
  endpoints.add(endpoint::make_dtn("big", 0));       // ~1.16 GB/s read
  endpoints.add(endpoint::make_dtn("big2", 0));
  endpoints.add(endpoint::make_personal("tiny", 0)); // ~62 MB/s write

  WorkloadConfig config;
  config.duration_s = 1.0e5;
  config.arrivals_per_s = 0.01;
  config.session_mean_transfers = 1.0;  // 1000 transfers expected.

  std::vector<EdgeProfile> profiles(2);
  // Edge 0: big -> big2, modest sizes (mean ~1 GB): ~10 MB/s offered. OK.
  profiles[0].src = 0;
  profiles[0].dst = 1;
  profiles[0].weight = 1.0;
  profiles[0].log_mean_bytes = std::log(1.0e9);
  profiles[0].log_sigma_bytes = 0.0;
  // Edge 1: big -> tiny, huge sizes (mean ~100 GB): ~500 MB/s offered into
  // a 62 MB/s endpoint. Must be tempered hard.
  profiles[1].src = 0;
  profiles[1].dst = 2;
  profiles[1].weight = 1.0;
  profiles[1].log_mean_bytes = std::log(1.0e11);
  profiles[1].log_sigma_bytes = 0.0;

  const double before0 = profiles[0].log_mean_bytes;
  const double before1 = profiles[1].log_mean_bytes;
  const auto tempered = temper_offered_load(profiles, endpoints, config, 0.45);
  EXPECT_EQ(tempered, 1u);
  EXPECT_DOUBLE_EQ(profiles[0].log_mean_bytes, before0);
  EXPECT_LT(profiles[1].log_mean_bytes, before1);

  // Post-temper offered load into the tiny endpoint respects the budget.
  const double mean_bytes = std::exp(profiles[1].log_mean_bytes);
  const double offered = 0.5 * 1000.0 * mean_bytes / config.duration_s;
  const double budget = 0.45 * std::min(endpoints[2].disk.write_Bps,
                                        endpoints[2].nic_in_Bps);
  EXPECT_LE(offered, budget * 1.01);
}

TEST(TemperOfferedLoad, NoChangeWhenUnderBudget) {
  endpoint::EndpointCatalog endpoints;
  endpoints.add(endpoint::make_dtn("a", 0));
  endpoints.add(endpoint::make_dtn("b", 0));
  WorkloadConfig config;
  config.duration_s = 1.0e6;
  config.arrivals_per_s = 0.001;
  std::vector<EdgeProfile> profiles(1);
  profiles[0].src = 0;
  profiles[0].dst = 1;
  profiles[0].log_mean_bytes = std::log(1.0e9);
  profiles[0].log_sigma_bytes = 0.5;
  EXPECT_EQ(temper_offered_load(profiles, endpoints, config), 0u);
}

TEST(TemperOfferedLoad, SharedEndpointAggregatesAcrossEdges) {
  // Two edges each individually under budget but jointly oversubscribing
  // the shared destination: both must be tempered.
  endpoint::EndpointCatalog endpoints;
  endpoints.add(endpoint::make_dtn("s1", 0));
  endpoints.add(endpoint::make_dtn("s2", 0));
  endpoints.add(endpoint::make_personal("shared", 0));
  WorkloadConfig config;
  config.duration_s = 1.0e5;
  config.arrivals_per_s = 0.01;
  config.session_mean_transfers = 1.0;
  std::vector<EdgeProfile> profiles(2);
  for (std::size_t p = 0; p < 2; ++p) {
    profiles[p].src = static_cast<endpoint::EndpointId>(p);
    profiles[p].dst = 2;
    profiles[p].weight = 1.0;
    profiles[p].log_mean_bytes = std::log(8.0e9);  // Each ~40 MB/s offered.
    profiles[p].log_sigma_bytes = 0.0;
  }
  EXPECT_EQ(temper_offered_load(profiles, endpoints, config, 0.45), 2u);
}

TEST(TemperOfferedLoad, ContractChecks) {
  endpoint::EndpointCatalog endpoints;
  endpoints.add(endpoint::make_dtn("a", 0));
  std::vector<EdgeProfile> profiles;
  WorkloadConfig config;
  EXPECT_THROW(temper_offered_load(profiles, endpoints, config, 0.0),
               xfl::ContractViolation);
  EXPECT_EQ(temper_offered_load(profiles, endpoints, config, 0.5), 0u);
}

}  // namespace
}  // namespace xfl::sim
