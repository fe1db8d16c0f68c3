// Benchmark program for the xferlearn library. Runs one named workload
// against the public API from outside, checks its outputs against
// oracles, prints a human-readable report and, as the last line of
// standard output, one JSON result object.
//
//   perfbench --workload pipeline|serve_predict|serve_mixed --seed N
//             --seconds S --trace 0|1
//   perfbench --self-check
//
// Run it from the repository root (perfbench/run.py builds it and does):
// scratch files (the serve workloads' model among them) and traces live
// under .bench_build/ there.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "obs/log.hpp"
#include "report.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

Result run_workload(const Options& options) {
  if (options.workload == "pipeline") return perfbench::run_pipeline(options);
  if (options.workload == "serve_predict")
    return perfbench::run_serve_predict(options);
  if (options.workload == "serve_mixed")
    return perfbench::run_serve_mixed(options);
  throw std::runtime_error("unknown workload '" + options.workload +
                           "' (pipeline, serve_predict, serve_mixed)");
}

/// Per-layer metrics that count failures or alarms: 0 on every workload.
const std::set<std::string> kMustBeZero = {
    "serve.drift_alarms", "serve.overloaded", "serve.timeouts",
    "loadgen.failed"};

/// Every workload, untraced and traced, at a tiny size: every end-to-end
/// metric must come out finite and non-zero, every per-layer metric
/// finite and measured (non-zero) on at least one workload, and every
/// oracle must pass.
int self_check(Options options) {
  options.self_check = true;
  options.seconds = 2.0;
  int problems = 0;
  std::set<std::string> measured;
  for (const char* workload : {"pipeline", "serve_predict", "serve_mixed"}) {
    for (const bool traced : {false, true}) {
      options.workload = workload;
      options.trace = traced;
      const Result result = run_workload(options);
      perfbench::print_report(stdout, options, result);
      for (const auto& [name, value] : result.layers) {
        if (value != 0.0) measured.insert(name);
        if (value != 0.0 && kMustBeZero.count(name) != 0) {
          std::printf("self-check: %s: %s = %g, expected 0\n", workload,
                      name.c_str(), value);
          ++problems;
        }
      }
      for (const auto& name : perfbench::missing_metrics(result, traced)) {
        std::printf("self-check: %s trace=%d: metric %s missing or invalid\n",
                    workload, traced ? 1 : 0, name.c_str());
        ++problems;
      }
      if (result.failed != 0 || result.attempted == 0) {
        std::printf("self-check: %s trace=%d: %llu of %llu checks failed\n",
                    workload, traced ? 1 : 0,
                    static_cast<unsigned long long>(result.failed),
                    static_cast<unsigned long long>(result.attempted));
        ++problems;
      }
    }
  }
  for (const auto& spec : perfbench::per_layer_metrics())
    if (measured.count(spec.name) == 0 && kMustBeZero.count(spec.name) == 0) {
      std::printf("self-check: layer metric %s is 0 on every workload\n",
                  spec.name);
      ++problems;
    }
  std::printf("self-check: %s\n", problems == 0 ? "ok" : "FAILED");
  return problems == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 | --self-check\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      check = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0))
        usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!check && options.workload.empty()) usage("--workload is required");

  if (const std::string refusal = perfbench::build_refusal(); !refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 refusal.c_str());
    return 3;
  }

  xfl::obs::LogConfig log_config;
  log_config.min_level = xfl::obs::LogLevel::kWarn;
  xfl::obs::configure_logging(log_config);

  namespace fs = std::filesystem;
  const fs::path state = fs::path(".bench_build");
  options.trace_dir = (state / "traces").string();
  options.work_dir =
      (state / ("work-" + std::to_string(::getpid()))).string();
  int status = 0;
  try {
    fs::create_directories(options.work_dir);
    if (check) {
      status = self_check(options);
    } else {
      const Result result = run_workload(options);
      perfbench::print_report(stdout, options, result);
      const auto missing = perfbench::missing_metrics(result, options.trace);
      for (const auto& name : missing)
        std::fprintf(stderr, "perfbench: metric %s missing or invalid\n",
                     name.c_str());
      if (missing.empty() || options.trace)
        perfbench::print_result_line(stdout, result, options.trace);
      else
        status = 1;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(options.work_dir, ignored);
  std::fflush(stdout);
  return status;
}
