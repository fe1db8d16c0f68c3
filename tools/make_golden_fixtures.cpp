// make_golden_fixtures - regenerate the committed golden-model fixtures in
// tests/data/ that test_golden_models exercises.
//
//   make_golden_fixtures [output_dir]   (default: tests/data)
//
// Writes:
//   golden_gbt.txt                  - a small fitted GradientBoostedTrees
//   golden_gbt_predictions.csv      - feature rows + expected predictions
//   golden_predictor.txt            - a small fitted TransferPredictor
//   golden_predictor_predictions.csv- planned transfers + expected rates
//   golden_sim_digest.txt           - simulator output digests (sim/digest.hpp)
//
// Everything is derived from fixed seeds and an explicit splitmix64
// generator (no std::<random> distributions), so the fixtures are
// reproducible bit-for-bit from this source. Predictions are written with
// the number codec so they round-trip exactly through text.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/number.hpp"
#include "core/predictor.hpp"
#include "ml/gbt.hpp"
#include "ml/matrix.hpp"
#include "sim/digest.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace xfl;

/// Deterministic uniform doubles in [0, 1) from splitmix64 — identical on
/// every platform, unlike std::uniform_real_distribution.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  double next_unit() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

std::string text(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "tests/data";

  // --- GBT fixture: small ensemble fitted on synthetic data -------------
  constexpr std::size_t kRows = 240;
  constexpr std::size_t kCols = 6;
  SplitMix rng(0xf17f5eedULL);
  ml::Matrix x(kRows, kCols);
  std::vector<double> y(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) x.at(r, c) = rng.next_unit() * 10.0;
    y[r] = 3.0 * x.at(r, 0) - 2.0 * x.at(r, 1) + x.at(r, 2) * x.at(r, 3) * 0.5 +
           (rng.next_unit() - 0.5);
  }

  ml::GbtConfig config;
  config.trees = 20;
  config.max_depth = 3;
  config.seed = 42;
  ml::GradientBoostedTrees boosted(config);
  boosted.fit(x, y);

  {
    std::ofstream out(dir + "/golden_gbt.txt");
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s/golden_gbt.txt\n",
                   dir.c_str());
      return 1;
    }
    boosted.save(out);
  }
  {
    std::ofstream out(dir + "/golden_gbt_predictions.csv");
    out << "f0,f1,f2,f3,f4,f5,prediction\n";
    for (std::size_t r = 0; r < 32; ++r) {
      for (std::size_t c = 0; c < kCols; ++c) out << text(x.at(r, c)) << ",";
      out << text(boosted.predict(x.row(r))) << "\n";
    }
  }

  // --- Predictor fixture: fitted on a small simulated log ---------------
  sim::EsnetConfig scenario_config;
  scenario_config.seed = 20170622;  // HPDC'17.
  scenario_config.transfers = 900;
  auto scenario = sim::make_esnet_testbed(scenario_config);
  const auto log = scenario.run().log;

  core::TransferPredictor::Options options;
  options.min_edge_transfers = 60;
  options.gbt.trees = 25;
  options.gbt.max_depth = 3;
  core::TransferPredictor predictor(options);
  predictor.fit(log);

  {
    std::ofstream out(dir + "/golden_predictor.txt");
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s/golden_predictor.txt\n",
                   dir.c_str());
      return 1;
    }
    predictor.save(out);
  }
  {
    // A spread of planned transfers: per-edge models and global fallbacks
    // (endpoint 9 has no history in the scenario).
    std::vector<core::PlannedTransfer> planned;
    SplitMix plan_rng(0xbeefULL);
    for (std::uint32_t s = 0; s < 4; ++s) {
      for (std::uint32_t d = 0; d < 4; ++d) {
        if (s == d) continue;
        core::PlannedTransfer transfer;
        transfer.src = s;
        transfer.dst = d;
        transfer.bytes = 1e8 + plan_rng.next_unit() * 5e10;
        transfer.files = 1 + static_cast<std::uint64_t>(
                                 plan_rng.next_unit() * 40.0);
        transfer.dirs = 1 + transfer.files / 8;
        transfer.concurrency = 1u + (s + d) % 8u;
        transfer.parallelism = 4;
        planned.push_back(transfer);
      }
    }
    core::PlannedTransfer unseen;
    unseen.src = 0;
    unseen.dst = 9;
    unseen.bytes = 2.5e9;
    planned.push_back(unseen);

    std::ofstream out(dir + "/golden_predictor_predictions.csv");
    out << "src,dst,bytes,files,dirs,concurrency,parallelism,"
           "rate_mbps,low_mbps,high_mbps\n";
    for (const auto& transfer : planned) {
      const auto interval = predictor.predict_rate_interval(transfer);
      out << transfer.src << "," << transfer.dst << "," << text(transfer.bytes)
          << "," << transfer.files << "," << transfer.dirs << ","
          << transfer.concurrency << "," << transfer.parallelism << ","
          << text(interval.expected_mbps) << "," << text(interval.low_mbps)
          << "," << text(interval.high_mbps) << "\n";
    }
  }

  // --- Simulator digest: log + samples of the golden digest cases -------
  {
    std::ofstream out(dir + "/golden_sim_digest.txt");
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s/golden_sim_digest.txt\n",
                   dir.c_str());
      return 1;
    }
    for (const auto& digest_case : sim::golden_digest_cases())
      out << sim::digest_line(digest_case.name, digest_case.scenario.run())
          << "\n";
  }

  std::printf("wrote golden fixtures to %s\n", dir.c_str());
  return 0;
}
