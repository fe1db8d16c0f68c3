#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "storage/disk.hpp"

namespace xfl::storage {
namespace {

TEST(Disk, PresetSpecsValid) {
  EXPECT_TRUE(dtn_parallel_fs().valid());
  EXPECT_TRUE(midrange_server().valid());
  EXPECT_TRUE(personal_machine().valid());
}

TEST(Disk, PresetsOrderedByClass) {
  EXPECT_GT(dtn_parallel_fs().read_Bps, midrange_server().read_Bps);
  EXPECT_GT(midrange_server().read_Bps, personal_machine().read_Bps);
}

TEST(Disk, DtnMatchesEsnetTestbedClass) {
  // Table 1 DTNs read at ~9.3 Gb/s and write at ~7.8 Gb/s.
  const auto spec = dtn_parallel_fs();
  EXPECT_NEAR(to_gbit(spec.read_Bps), 9.3, 0.01);
  EXPECT_NEAR(to_gbit(spec.write_Bps), 7.8, 0.01);
}

TEST(Disk, EfficiencyZeroGrantIsZero) {
  EXPECT_DOUBLE_EQ(file_overhead_efficiency_Bps(0.0, 1e9, 0.1), 0.0);
}

TEST(Disk, EfficiencyNoOverheadIsIdentity) {
  EXPECT_DOUBLE_EQ(file_overhead_efficiency_Bps(5e8, 1e9, 0.0), 5e8);
}

TEST(Disk, EfficiencyAlwaysBelowGrant) {
  for (const double grant : {1e6, 1e8, 1e9}) {
    const double eff = file_overhead_efficiency_Bps(grant, 1e8, 0.05);
    EXPECT_LT(eff, grant);
    EXPECT_GT(eff, 0.0);
  }
}

TEST(Disk, EfficiencyHurtsSmallFilesMore) {
  // Same grant, smaller files -> lower effective throughput (Fig. 5).
  const double big = file_overhead_efficiency_Bps(5e8, 1e10, 0.05);
  const double small = file_overhead_efficiency_Bps(5e8, 1e6, 0.05);
  EXPECT_GT(big, small);
}

TEST(Disk, EfficiencySaturatesAtFileRate) {
  // As the grant grows, throughput approaches s / t_o.
  const double s = 1e8, t_o = 0.1;
  const double eff = file_overhead_efficiency_Bps(1e15, s, t_o);
  EXPECT_NEAR(eff, s / t_o, s / t_o * 0.001);
}

TEST(Disk, EfficiencyMonotoneInGrant) {
  double previous = 0.0;
  for (double grant = 1e6; grant <= 1e12; grant *= 10.0) {
    const double eff = file_overhead_efficiency_Bps(grant, 1e9, 0.05);
    EXPECT_GE(eff, previous);
    previous = eff;
  }
}

TEST(Disk, EfficiencyContractChecks) {
  EXPECT_THROW(file_overhead_efficiency_Bps(-1.0, 1e9, 0.1),
               xfl::ContractViolation);
  EXPECT_THROW(file_overhead_efficiency_Bps(1.0, 0.0, 0.1),
               xfl::ContractViolation);
  EXPECT_THROW(file_overhead_efficiency_Bps(1.0, 1e9, -0.1),
               xfl::ContractViolation);
}

}  // namespace
}  // namespace xfl::storage
