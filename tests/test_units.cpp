#include "common/units.hpp"

#include <gtest/gtest.h>

namespace xfl {
namespace {

TEST(Units, RateConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps(100.0), 1.0e8);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(118.3)), 118.3);
  EXPECT_DOUBLE_EQ(gbit(10.0), 1.25e9);
  EXPECT_DOUBLE_EQ(to_gbit(gbit(7.843)), 7.843);
}

TEST(Units, ByteConstantsConsistent) {
  EXPECT_DOUBLE_EQ(kKB * 1000.0, kMB);
  EXPECT_DOUBLE_EQ(kMB * 1000.0, kGB);
  EXPECT_DOUBLE_EQ(kGB * 1000.0, kTB);
  EXPECT_DOUBLE_EQ(kTB * 1000.0, kPB);
}

TEST(Units, FormatBytesScales) {
  EXPECT_EQ(format_bytes(513.0), "513 B");
  EXPECT_EQ(format_bytes(2.053e12), "2.05 TB");
  EXPECT_EQ(format_bytes(1.5e6), "1.50 MB");
}

}  // namespace
}  // namespace xfl
