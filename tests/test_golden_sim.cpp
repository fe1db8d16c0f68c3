// Golden simulator digest: the committed tests/data/golden_sim_digest.txt
// (written by tools/make_golden_fixtures) pins the simulator's output —
// every log record and every endpoint and WAN sample, as hex-floats — for
// the ESnet, LMT and one-day production presets. Any change to the event
// loop or the max-min solver that moves a single bit of output fails here.
#include "sim/digest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <string>

namespace xfl::sim {
namespace {

std::map<std::string, std::string> committed_digests() {
  std::ifstream in(std::string(XFL_TEST_DATA_DIR) + "/golden_sim_digest.txt");
  EXPECT_TRUE(in.good()) << "missing golden_sim_digest.txt";
  std::map<std::string, std::string> digests;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) digests[line.substr(0, line.find(' '))] = line;
  return digests;
}

TEST(GoldenSim, DigestsMatchCommitted) {
  const auto committed = committed_digests();
  const auto cases = golden_digest_cases();
  ASSERT_EQ(committed.size(), cases.size());
  for (const auto& digest_case : cases) {
    SCOPED_TRACE(digest_case.name);
    const auto it = committed.find(digest_case.name);
    ASSERT_NE(it, committed.end());
    EXPECT_EQ(digest_line(digest_case.name, digest_case.scenario.run()),
              it->second);
  }
}

TEST(GoldenSim, DigestSeesOneBitChanges) {
  SimResult result;
  logs::TransferRecord record;
  record.end_s = 1.0;
  result.log.append(record);
  const std::string before = digest_line("x", result);
  SimResult nudged;
  record.end_s = std::nextafter(1.0, 2.0);
  nudged.log.append(record);
  EXPECT_NE(digest_line("x", nudged), before);
}

}  // namespace
}  // namespace xfl::sim
