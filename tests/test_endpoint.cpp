#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "endpoint/endpoint.hpp"
#include "endpoint/gridftp.hpp"

namespace xfl::endpoint {
namespace {

TEST(Endpoint, CatalogAddAndFind) {
  EndpointCatalog catalog;
  const auto id = catalog.add(make_dtn("alpha", 0));
  EXPECT_EQ(catalog[id].name, "alpha");
  EndpointId found = 99;
  EXPECT_TRUE(catalog.find("alpha", found));
  EXPECT_EQ(found, id);
  EXPECT_FALSE(catalog.find("missing", found));
}

TEST(Endpoint, CatalogRejectsInvalidSpec) {
  EndpointCatalog catalog;
  EndpointSpec bad;  // Empty name.
  EXPECT_THROW(catalog.add(bad), xfl::ContractViolation);
}

TEST(Endpoint, TypeStrings) {
  EXPECT_STREQ(to_string(EndpointType::kServer), "GCS");
  EXPECT_STREQ(to_string(EndpointType::kPersonal), "GCP");
}

TEST(Endpoint, MakersSetTypes) {
  EXPECT_EQ(make_dtn("d", 0).type, EndpointType::kServer);
  EXPECT_EQ(make_personal("p", 0).type, EndpointType::kPersonal);
}

TEST(Endpoint, PersonalSlowerThanDtn) {
  const auto dtn = make_dtn("d", 0);
  const auto personal = make_personal("p", 0);
  EXPECT_GT(dtn.nic_in_Bps, personal.nic_in_Bps);
  EXPECT_GT(dtn.disk.read_Bps, personal.disk.read_Bps);
}

TEST(Endpoint, CpuEfficiencyDecreasing) {
  double previous = 2.0;
  for (const double n : {0.0, 4.0, 16.0, 48.0, 128.0, 512.0}) {
    const double eff = cpu_efficiency(n);
    EXPECT_LT(eff, previous);
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 1.0);
    previous = eff;
  }
}

TEST(Endpoint, CpuEfficiencyHalfAtKnee) {
  EXPECT_DOUBLE_EQ(cpu_efficiency(48.0, 48.0), 0.5);
  EXPECT_DOUBLE_EQ(cpu_efficiency(10.0, 10.0), 0.5);
}

TEST(Endpoint, CpuEfficiencyIdleIsFull) {
  EXPECT_DOUBLE_EQ(cpu_efficiency(0.0), 1.0);
}

TEST(Endpoint, CpuEfficiencyRejectsNegative) {
  EXPECT_THROW(cpu_efficiency(-1.0), xfl::ContractViolation);
  EXPECT_THROW(cpu_efficiency(1.0, 0.0), xfl::ContractViolation);
}

TEST(GridFtp, EffectiveConcurrencyCappedByFiles) {
  GridFtpParams params{.concurrency = 8, .parallelism = 4};
  EXPECT_EQ(effective_concurrency(params, 100), 8u);
  EXPECT_EQ(effective_concurrency(params, 3), 3u);
  EXPECT_EQ(effective_concurrency(params, 8), 8u);
}

TEST(GridFtp, TotalStreamsIsProcsTimesP) {
  GridFtpParams params{.concurrency = 4, .parallelism = 8};
  EXPECT_EQ(total_streams(params, 100), 32u);
  EXPECT_EQ(total_streams(params, 2), 16u);
}

TEST(GridFtp, ConcurrencyContractChecks) {
  GridFtpParams bad{.concurrency = 0, .parallelism = 1};
  EXPECT_THROW(effective_concurrency(bad, 10), xfl::ContractViolation);
  GridFtpParams good{.concurrency = 1, .parallelism = 1};
  EXPECT_THROW(effective_concurrency(good, 0), xfl::ContractViolation);
}

TEST(GridFtp, CpuWorkFactorOrdering) {
  GridFtpParams plain{.concurrency = 1, .parallelism = 1,
                      .integrity_check = false};
  GridFtpParams checked = plain;
  checked.integrity_check = true;
  EXPECT_DOUBLE_EQ(cpu_work_factor(plain), 1.0);
  EXPECT_GT(cpu_work_factor(checked), cpu_work_factor(plain));
}

TEST(GridFtp, StartupCostGrowsWithRttAndConcurrency) {
  GridFtpParams low{.concurrency = 1, .parallelism = 1};
  GridFtpParams high{.concurrency = 16, .parallelism = 1};
  EXPECT_LT(startup_cost_s(low, 0.01), startup_cost_s(low, 0.2));
  EXPECT_LT(startup_cost_s(low, 0.1), startup_cost_s(high, 0.1));
}

TEST(GridFtp, PerFileOverheadIncludesChecksumCost) {
  const storage::DiskSpec disk = storage::dtn_parallel_fs();
  GridFtpParams with{.concurrency = 4, .parallelism = 4,
                     .integrity_check = true};
  GridFtpParams without = with;
  without.integrity_check = false;
  EXPECT_GT(per_file_overhead_s(with, disk, 0.05),
            per_file_overhead_s(without, disk, 0.05));
}

TEST(GridFtp, FaultIntensityGrowsWithLoad) {
  const FaultPolicy policy;
  const double idle = fault_intensity_per_s(policy, 0.0);
  const double busy = fault_intensity_per_s(policy, 1.0);
  EXPECT_DOUBLE_EQ(idle, policy.base_rate_per_s);
  EXPECT_DOUBLE_EQ(busy, policy.base_rate_per_s + kLoadFaultRatePerS);
  EXPECT_LT(fault_intensity_per_s(policy, 0.5), busy);
}

TEST(GridFtp, FaultIntensityRejectsBadUtilisation) {
  const FaultPolicy policy;
  EXPECT_THROW(fault_intensity_per_s(policy, -0.1), xfl::ContractViolation);
  EXPECT_THROW(fault_intensity_per_s(policy, 1.5), xfl::ContractViolation);
}

// Parameterised sweep: stream counts consistent for all C, P, Nf combos.
class GridFtpSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> {};

TEST_P(GridFtpSweep, StreamsEqualProcsTimesParallelism) {
  const auto [c, p, files] = GetParam();
  GridFtpParams params{.concurrency = c, .parallelism = p};
  const auto procs = effective_concurrency(params, files);
  EXPECT_LE(procs, c);
  EXPECT_LE(procs, files);
  EXPECT_EQ(total_streams(params, files), procs * p);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GridFtpSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 16u),
                       ::testing::Values(1u, 4u, 8u),
                       ::testing::Values(1ull, 3ull, 100ull)));

}  // namespace
}  // namespace xfl::endpoint
