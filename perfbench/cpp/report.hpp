// The benchmark's metric catalogue and output: the declared metrics every
// run reports (their names and units must match BENCHMARK.json), the host
// block, the human-readable report, and the final JSON result line.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by every traced run.
const std::vector<MetricSpec>& per_layer_metrics();

/// Cores, CPU flags, serving kernel, compiler and build flags, as one
/// JSON object.
std::string host_json(const std::string& kernel);

/// Empty when the build may report; otherwise why not (Debug or
/// sanitizer builds measure the wrong program).
std::string build_refusal();

/// Names of declared metrics that are not finite in `result`; for an
/// untraced run also those that are missing or read 0 (a traced run
/// reports a layer its workload does not exercise as 0).
std::vector<std::string> missing_metrics(const Result& result, bool traced);

/// Human-readable report: host block, named figures, ledgers, notes.
void print_report(std::FILE* out, const Options& options,
                  const Result& result);

/// The last line of standard output: the JSON result object.
void print_result_line(std::FILE* out, const Result& result, bool traced);

}  // namespace perfbench
