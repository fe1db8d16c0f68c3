// Golden digest of a simulation's outputs.
//
// The simulator promises bit-for-bit reproducible output for a fixed seed:
// every logged time and every monitor sample. A digest line pins that
// promise down compactly: per output stream (log records, endpoint samples,
// WAN samples) a count and a 64-bit FNV-1a hash of the stream's canonical
// text, in which every double is written as a C99 hex-float (`%a`, exact).
// tools/make_golden_fixtures writes the digests of golden_digest_cases()
// to tests/data/golden_sim_digest.txt, and test_golden_sim recomputes them.
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace xfl::sim {

/// One line, no trailing newline:
///   <name> events=N records=N samples=N wan_samples=N log=H samples=H wan=H
/// where H is a 16-digit hex FNV-1a 64 hash.
std::string digest_line(const std::string& name, const SimResult& result);

/// A named, runnable scenario covered by the committed digest.
struct DigestCase {
  std::string name;
  Scenario scenario;
};

/// The digest set: the ESnet preset, the LMT preset, and a one-day
/// production preset. The ESnet and production cases add endpoint and WAN
/// monitors, so that every sample stream the simulator emits is covered.
std::vector<DigestCase> golden_digest_cases();

}  // namespace xfl::sim
