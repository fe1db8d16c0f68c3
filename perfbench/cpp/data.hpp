// Inputs shared by the workloads: the production scenario, the
// start-time train/holdout split of an analysed log, and the serve
// workloads' model plus request pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

/// Held-out transfers as a caller would ask about them: the planned
/// transfer, its logged Eq. 2 load, and the rate it actually achieved.
struct Holdout {
  std::vector<xfl::core::PlannedTransfer> transfers;
  std::vector<xfl::features::ContentionFeatures> loads;
  std::vector<double> actual_mbps;
};

struct Split {
  xfl::logs::LogStore train;
  Holdout holdout;
};

/// The production preset (~59k transfers); `tiny` shrinks it to one
/// simulated day for the self-check.
xfl::sim::ProductionConfig production_config(std::uint64_t seed, bool tiny);

/// Order transfers by start time; the first `train_share` train, the rest
/// are held out with their logged load from `context`.
Split split_by_start(const xfl::core::AnalysisContext& context,
                     double train_share);

/// The serve workloads' fixed inputs: a model fitted on the production
/// preset and its held-out transfers. Built on every serve run, before
/// anything is timed, with the pipeline workload's steps on a fixed seed;
/// the model file lives in options.work_dir.
struct ServeData {
  std::string model_path;
  Holdout pool;
};
ServeData make_serve_data(const Options& options);

}  // namespace perfbench
