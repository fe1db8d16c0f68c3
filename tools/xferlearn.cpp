// xferlearn - command-line front end for the library.
//
//   xferlearn simulate --scenario esnet|production|lmt [--seed N]
//                      [--out log.csv] [--anonymize]
//   xferlearn analyze  --log log.csv [--threshold 0.5]
//   xferlearn evaluate --log log.csv [--max-edges 30] [--min-transfers 300]
//   xferlearn train    --log log.csv --model-out model.txt
//                      [--min-edge-transfers 100]
//   xferlearn predict  (--log log.csv | --model model.txt)
//                      --src ID --dst ID --bytes BYTES
//                      [--files N] [--dirs N] [--concurrency C]
//                      [--parallelism P]
//   xferlearn predict-batch (--log log.csv | --model model.txt)
//                      --transfers planned.csv [--out predictions.csv]
//                      (planned.csv: src,dst,bytes[,files,dirs,
//                       concurrency,parallelism]; header row optional;
//                       served by the flattened batch-inference engine)
//   xferlearn export-dataset --log log.csv --src ID --dst ID --out data.csv
//   xferlearn serve    --model model.txt [--port N] [--bind ADDR]
//                      [--max-batch N] [--queue-cap N]
//                      [--shards N] [--frame-timeout-ms N]
//                      [--drift-window N] [--drift-threshold PCT]
//                      [--drift-min-samples N]
//                      [--journal-dir DIR] [--retrain-interval SECONDS]
//                      [--retrain-min-records N]
//                      (line-delimited JSON over TCP, with an opt-in
//                       length-prefixed binary framing — send the 8 bytes
//                       "XFLBIN1\n" to negotiate; epoll event loop, so
//                       idle connections are ~free; --shards 0 = auto
//                       picks the batcher worker count; SIGHUP or the
//                       {"cmd":"reload"} admin frame hot-swaps the model;
//                       SIGINT/SIGTERM drain gracefully; --journal-dir
//                       closes the drift loop: matched feedback is
//                       journalled there and a background worker refits
//                       the affected edge model on a drift alarm — or
//                       every --retrain-interval seconds — validating the
//                       candidate on held-out records before hot-swapping
//                       it in as a new model version)
//   xferlearn request  --port N [--host ADDR] --src ID --dst ID
//                      --bytes BYTES [--files N] [--dirs N]
//                      [--concurrency C] [--parallelism P]
//                      [--deadline-ms N] | --ping | --stats |
//                      --reload [--path model.txt] |
//                      --retrain-status |
//                      --feedback TRACE --observed-mbps X
//                      (--stats prints a summary plus a Prometheus-style
//                       dump of the server's live metrics registry;
//                       --retrain-status reports the background refit
//                       worker: cycles, accept/reject counts, last gate
//                       decision; --feedback joins an observed rate to the
//                       prediction whose reply carried trace id TRACE)
//   xferlearn explain  --port N [--host ADDR] --src ID --dst ID
//                      --bytes BYTES [--files N] [--dirs N]
//                      [--concurrency C] [--parallelism P]
//                      [--deadline-ms N] [--top-k K] [--binary]
//                      (asks the server for a prediction plus its Saabas
//                       per-feature attribution: each feature's MB/s
//                       contribution along the ensemble's decision paths,
//                       summing with the bias bit-exactly to the raw
//                       score; --top-k keeps only the K strongest
//                       contributions, --binary drives the packed
//                       kExplain frame instead of JSON)
//
// Batch inference runs the lossless quantized kernel when the model
// compiles to it and the CPU executes AVX2, and the scalar reference
// kernel otherwise; both give bit-identical answers. There is no switch:
// `request --stats` and the serve startup log name the kernel in use.
//
// Observability options, accepted by every subcommand (after the name):
//   --log-level trace|debug|info|warn|error|off   (default info)
//   --log-json                 JSON-lines log records instead of text
//   --metrics-out <file>       write the metrics registry as JSON at exit
//   --trace-out <file>         enable stage tracing; write Chrome
//                              trace_event JSON (about:tracing / Perfetto)
//   --print-metrics            dump the metrics registry as text at exit
//
// Every subcommand works on the Globus-schema CSV produced by `simulate`
// or exported from a real transfer service.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/number.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/edge_model.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "features/dataset.hpp"
#include "logs/anonymize.hpp"
#include "ml/gbt_flat.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "retrain/retrainer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace xfl;

/// Minimal --flag value parser: returns the value after `name`, if present.
class ArgList {
 public:
  ArgList(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::optional<std::string> value(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i)
      if (args_[i] == name) return args_[i + 1];
    return std::nullopt;
  }

  /// The first --flag given more than once, if any: a repeated flag has
  /// no one value, so main() refuses it instead of reading the first.
  std::optional<std::string> repeated_flag() const {
    for (auto it = args_.begin(); it != args_.end(); ++it)
      if (it->starts_with("--") &&
          std::find(it + 1, args_.end(), *it) != args_.end())
        return *it;
    return std::nullopt;
  }

  bool flag(const std::string& name) const {
    for (const auto& arg : args_)
      if (arg == name) return true;
    return false;
  }

  std::string value_or(const std::string& name, const std::string& fallback) const {
    return value(name).value_or(fallback);
  }

  /// The value after `name` read whole by the number codec as a T, or
  /// `fallback` when absent. `--transfers 12x` or `--port -1` throws
  /// std::runtime_error (main() exits nonzero) instead of truncating.
  template <class T>
  T number_or(const std::string& name, T fallback) const {
    const auto v = value(name);
    if (v && !parse_number(*v, fallback))
      throw std::runtime_error("bad value for " + name + ": '" + *v + "'");
    return fallback;
  }

 private:
  std::vector<std::string> args_;
};

/// The transfer named by --src, --dst and --bytes (nullopt unless all
/// three are given) and the optional --files, --dirs, --concurrency and
/// --parallelism, which default as PlannedTransfer does. A value outside
/// the ranges the server accepts throws, naming its flag.
std::optional<core::PlannedTransfer> planned_transfer(const ArgList& args) {
  if (!args.value("--src") || !args.value("--dst") || !args.value("--bytes"))
    return std::nullopt;
  core::PlannedTransfer planned;
  planned.src = args.number_or("--src", planned.src);
  planned.dst = args.number_or("--dst", planned.dst);
  planned.bytes = args.number_or("--bytes", planned.bytes);
  planned.files = args.number_or("--files", planned.files);
  planned.dirs = args.number_or("--dirs", planned.dirs);
  planned.concurrency = args.number_or("--concurrency", planned.concurrency);
  planned.parallelism = args.number_or("--parallelism", planned.parallelism);
  if (const char* field = planned.invalid_field()) {
    const std::string flag = "--" + std::string(field);
    throw std::runtime_error("bad value for " + flag + ": '" +
                             args.value_or(flag, "") + "' is out of range");
  }
  return planned;
}

int usage() {
  std::fprintf(stderr,
               "usage: xferlearn <simulate|analyze|train|evaluate|predict|"
               "predict-batch|export-dataset|serve|request|explain> "
               "[options]\n"
               "observability (any command): --log-level <level> --log-json "
               "--metrics-out <file> --trace-out <file> --print-metrics\n"
               "run `xferlearn <command>` with no options for details in "
               "the header of tools/xferlearn.cpp\n");
  return 2;
}

logs::LogStore load_log(const ArgList& args) {
  const auto path = args.value("--log");
  if (!path) {
    std::fprintf(stderr, "error: --log <file.csv> is required\n");
    std::exit(2);
  }
  std::ifstream in(*path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path->c_str());
    std::exit(1);
  }
  auto log = logs::LogStore::read_csv(in);
  std::printf("loaded %zu transfers from %s\n", log.size(), path->c_str());
  return log;
}

int cmd_simulate(const ArgList& args) {
  const std::string which = args.value_or("--scenario", "esnet");
  const auto seed = args.number_or("--seed", std::uint64_t{0});

  sim::Scenario scenario;
  if (which == "esnet") {
    sim::EsnetConfig config;
    if (seed != 0) config.seed = seed;
    config.transfers = args.number_or("--transfers", std::size_t{2000});
    scenario = sim::make_esnet_testbed(config);
  } else if (which == "production") {
    sim::ProductionConfig config;
    if (seed != 0) config.seed = seed;
    scenario = sim::make_production(config);
  } else if (which == "lmt") {
    sim::LmtConfig config;
    if (seed != 0) config.seed = seed;
    scenario = sim::make_nersc_lmt(config);
  } else {
    std::fprintf(stderr, "error: unknown scenario '%s'\n", which.c_str());
    return 2;
  }

  std::printf("simulating %zu transfers (%s)...\n", scenario.workload.size(),
              which.c_str());
  auto result = scenario.run();
  logs::LogStore output = std::move(result.log);
  if (args.flag("--anonymize"))
    output = logs::anonymize(output, seed == 0 ? 0x5eedULL : seed).log;

  const std::string out_path = args.value_or("--out", "transfer_log.csv");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  output.write_csv(out);
  std::printf("wrote %zu transfers to %s%s\n", output.size(), out_path.c_str(),
              args.flag("--anonymize") ? " (anonymised)" : "");
  return 0;
}

int cmd_analyze(const ArgList& args) {
  const auto log = load_log(args);
  const double threshold = args.number_or("--threshold", 0.5);
  const auto context = core::analyze_log(log, /*contention_threads=*/0);

  TextTable table;
  table.set_title("edges by usage (top 20):");
  table.set_header({"src", "dst", "transfers", "Rmax (MB/s)",
                    "above T*Rmax", "retention %"});
  const auto edges = context.log.edges_by_usage();
  for (std::size_t e = 0; e < edges.size() && e < 20; ++e) {
    const auto indices = context.log.edge_transfers(edges[e]);
    const double rmax = context.log.edge_max_rate(edges[e]);
    std::size_t qualifying = 0;
    for (const auto i : indices)
      if (context.log[i].rate_Bps() >= threshold * rmax) ++qualifying;
    table.add_row({std::to_string(edges[e].src), std::to_string(edges[e].dst),
                   std::to_string(indices.size()),
                   TextTable::num(to_mbps(rmax), 1),
                   std::to_string(qualifying),
                   TextTable::num(100.0 * static_cast<double>(qualifying) /
                                      static_cast<double>(indices.size()),
                                  1)});
  }
  table.print(stdout);

  TextTable capability_table;
  capability_table.set_title("\nendpoint capability estimates (MB/s):");
  capability_table.set_header({"endpoint", "DRmax", "DWmax", "ROmax", "RImax"});
  for (const auto& [endpoint, capability] : context.capabilities) {
    capability_table.add_row({std::to_string(endpoint),
                              TextTable::num(to_mbps(capability.dr_max_Bps), 1),
                              TextTable::num(to_mbps(capability.dw_max_Bps), 1),
                              TextTable::num(to_mbps(capability.ro_max_Bps), 1),
                              TextTable::num(to_mbps(capability.ri_max_Bps), 1)});
  }
  capability_table.print(stdout);
  return 0;
}

int cmd_evaluate(const ArgList& args) {
  const auto log = load_log(args);
  const auto context = core::analyze_log(log, /*contention_threads=*/0);
  const auto max_edges = args.number_or("--max-edges", std::size_t{30});
  const auto min_transfers =
      args.number_or("--min-transfers", std::size_t{300});
  const auto edges =
      core::select_heavy_edges(context, min_transfers, 0.5, max_edges);
  if (edges.empty()) {
    std::fprintf(stderr,
                 "no edges with >= %zu transfers above 0.5*Rmax; lower "
                 "--min-transfers\n",
                 min_transfers);
    return 1;
  }
  ThreadPool pool;
  const auto reports = core::study_edges(context, edges, {}, &pool);
  TextTable table;
  table.set_header({"edge", "samples", "LR MdAPE %", "XGB MdAPE %"});
  for (const auto& report : reports)
    table.add_row({std::to_string(report.edge.src) + "->" +
                       std::to_string(report.edge.dst),
                   std::to_string(report.samples),
                   TextTable::num(report.lr_mdape, 1),
                   TextTable::num(report.xgb_mdape, 1)});
  table.print(stdout);
  return 0;
}

/// Fit a predictor on the --log transfers.
core::TransferPredictor train_predictor(const ArgList& args) {
  const auto log = load_log(args);
  core::TransferPredictor::Options options;
  options.min_edge_transfers =
      args.number_or("--min-edge-transfers", std::size_t{100});
  core::TransferPredictor predictor(options);
  predictor.fit(log);
  return predictor;
}

int cmd_train(const ArgList& args) {
  const auto out_path = args.value("--model-out");
  if (!out_path) {
    std::fprintf(stderr, "error: --model-out <file> is required\n");
    return 2;
  }
  const core::TransferPredictor predictor = train_predictor(args);
  // Temp-file + atomic rename, so a serve daemon watching this path never
  // reloads a half-written model.
  predictor.save_file(*out_path);
  std::printf("trained predictor saved to %s\n", out_path->c_str());
  return 0;
}

/// Shared by predict, predict-batch and serve: load a saved predictor from
/// --model, or train one from --log.
core::TransferPredictor acquire_predictor(const ArgList& args) {
  if (const auto model_path = args.value("--model")) {
    auto predictor = core::TransferPredictor::load_file(*model_path);
    std::printf("loaded predictor from %s\n", model_path->c_str());
    return predictor;
  }
  return train_predictor(args);
}

int cmd_predict(const ArgList& args) {
  const auto planned = planned_transfer(args);
  if (!planned) {
    std::fprintf(stderr, "error: --src, --dst and --bytes are required\n");
    return 2;
  }

  const core::TransferPredictor predictor = acquire_predictor(args);
  const logs::EdgeKey edge{planned->src, planned->dst};
  const double rate = predictor.predict_rate_mbps(*planned);
  std::printf("model: %s\n",
              predictor.has_edge_model(edge) ? "per-edge" : "global fallback");
  std::printf("predicted rate:     %.1f MB/s\n", rate);
  std::printf("predicted duration: %.0f s for %s\n",
              predictor.estimate_duration_s(*planned),
              format_bytes(planned->bytes).c_str());
  std::printf("top features: ");
  const auto importances = predictor.explain(edge);
  for (std::size_t i = 0; i < importances.size() && i < 5; ++i)
    std::printf("%s%s (%.2f)", i == 0 ? "" : ", ", importances[i].first.c_str(),
                importances[i].second);
  std::printf("\n");
  return 0;
}

int cmd_predict_batch(const ArgList& args) {
  const auto transfers_path = args.value("--transfers");
  if (!transfers_path) {
    std::fprintf(stderr, "error: --transfers <planned.csv> is required\n");
    return 2;
  }
  auto csv = CsvReader::open(*transfers_path);

  // Accept an optional header row: skip the first row when its bytes column
  // does not parse as a number.
  std::vector<core::PlannedTransfer> planned;
  for (std::size_t r = 0; csv.next(); ++r) {
    const auto row = csv.row();
    core::PlannedTransfer transfer;
    if (r == 0 && row.size() >= 3 && !parse_number(row[2], transfer.bytes))
      continue;  // Header.
    if (row.size() < 3) {
      std::fprintf(stderr,
                   "error: %s line %zu: need at least src,dst,bytes\n",
                   transfers_path->c_str(), r + 1);
      return 1;
    }
    // Columns past bytes are optional and keep PlannedTransfer's defaults
    // when absent.
    const auto field = [&](std::size_t c, const char* name, auto& out) {
      if (c < row.size())
        parse_csv_field(row[c], out, *transfers_path, r + 1, name);
    };
    field(0, "src", transfer.src);
    field(1, "dst", transfer.dst);
    field(2, "bytes", transfer.bytes);
    field(3, "files", transfer.files);
    field(4, "dirs", transfer.dirs);
    field(5, "concurrency", transfer.concurrency);
    field(6, "parallelism", transfer.parallelism);
    if (const char* bad = transfer.invalid_field())
      throw std::runtime_error(*transfers_path + ": row " +
                               std::to_string(r + 1) + ", column '" + bad +
                               "' out of range");
    planned.push_back(transfer);
  }
  if (planned.empty()) {
    std::fprintf(stderr, "error: no planned transfers in %s\n",
                 transfers_path->c_str());
    return 1;
  }

  const core::TransferPredictor predictor = acquire_predictor(args);
  // One grouped pass through the flattened batch engine; identical answers
  // to calling predict_rate_mbps per row.
  const auto rates = predictor.predict_rates_mbps(planned);

  if (const auto out_path = args.value("--out")) {
    std::ofstream out(*out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
      return 1;
    }
    CsvWriter writer(out);
    writer.write_row(CsvRow{"src", "dst", "bytes", "rate_mbps", "duration_s"});
    char buffer[64];
    for (std::size_t i = 0; i < planned.size(); ++i) {
      const double duration =
          planned[i].bytes / std::max(rates[i], 0.01) / 1e6;
      CsvRow row;
      row.push_back(std::to_string(planned[i].src));
      row.push_back(std::to_string(planned[i].dst));
      std::snprintf(buffer, sizeof buffer, "%.0f", planned[i].bytes);
      row.push_back(buffer);
      append_number(row.emplace_back(), rates[i]);
      append_number(row.emplace_back(), duration);
      writer.write_row(row);
    }
    std::printf("wrote %zu predictions to %s\n", planned.size(),
                out_path->c_str());
  } else {
    TextTable table;
    table.set_header({"src", "dst", "bytes", "rate MB/s", "duration s"});
    for (std::size_t i = 0; i < planned.size(); ++i)
      table.add_row({std::to_string(planned[i].src),
                     std::to_string(planned[i].dst),
                     format_bytes(planned[i].bytes),
                     TextTable::num(rates[i], 1),
                     TextTable::num(
                         planned[i].bytes / std::max(rates[i], 0.01) / 1e6,
                         0)});
    table.print(stdout);
  }
  return 0;
}

int cmd_export_dataset(const ArgList& args) {
  const auto log = load_log(args);
  const auto src = args.value("--src");
  const auto dst = args.value("--dst");
  if (!src || !dst) {
    std::fprintf(stderr, "error: --src and --dst are required\n");
    return 2;
  }
  const logs::EdgeKey edge{args.number_or("--src", endpoint::EndpointId{0}),
                           args.number_or("--dst", endpoint::EndpointId{0})};
  if (log.edge_count(edge) == 0) {
    std::fprintf(stderr, "error: edge %s->%s has no transfers\n", src->c_str(),
                 dst->c_str());
    return 1;
  }
  const auto contention = features::compute_contention(log);
  features::DatasetOptions options;
  options.load_threshold = args.number_or("--threshold", 0.5);
  options.include_nflt = args.flag("--with-nflt");
  const auto dataset = features::build_edge_dataset(log, contention, edge, options);

  const std::string out_path = args.value_or("--out", "dataset.csv");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  features::write_dataset_csv(dataset, out);
  std::printf("wrote %zu rows x %zu features to %s\n", dataset.rows(),
              dataset.cols(), out_path.c_str());
  return 0;
}

// Signal flags for the serve daemon: SIGINT/SIGTERM drain and exit,
// SIGHUP hot-reloads the model file.
volatile std::sig_atomic_t g_serve_stop = 0;
volatile std::sig_atomic_t g_serve_hup = 0;

void serve_stop_handler(int) { g_serve_stop = 1; }
void serve_hup_handler(int) { g_serve_hup = 1; }

serve::PredictionServer::Options server_options(const ArgList& args) {
  serve::PredictionServer::Options options;
  options.port = args.number_or("--port", std::uint16_t{7070});
  options.bind_address = args.value_or("--bind", "127.0.0.1");
  options.max_batch = args.number_or("--max-batch", std::size_t{64});
  options.queue_capacity = args.number_or("--queue-cap", std::size_t{1024});
  options.shards = args.number_or("--shards", std::size_t{0});
  options.partial_frame_timeout_ms =
      args.number_or("--frame-timeout-ms", std::uint64_t{30000});
  options.monitor.drift_window =
      args.number_or("--drift-window", std::size_t{64});
  options.monitor.drift_threshold_pct =
      args.number_or("--drift-threshold", 30.0);
  options.monitor.drift_min_samples =
      args.number_or("--drift-min-samples", std::size_t{16});
  return options;
}

int cmd_serve(const ArgList& args) {
  // Empty when trained from --log: reloads then need an admin path.
  const std::string model_path = args.value_or("--model", "");
  serve::ModelHost host(
      std::make_shared<const core::TransferPredictor>(acquire_predictor(args)),
      model_path);
  serve::PredictionServer server(host, server_options(args));

  // --journal-dir closes the drift loop: feedback -> journal -> refit ->
  // validated hot swap. The service installs its hooks before start().
  std::unique_ptr<retrain::RetrainService> retrain_service;
  if (const auto journal_dir = args.value("--journal-dir")) {
    retrain::TrainingJournal::Options journal_options;
    journal_options.directory = *journal_dir;
    retrain::RetrainOptions retrain_options;
    retrain_options.interval_ms = static_cast<std::uint64_t>(
        args.number_or("--retrain-interval", 0.0) * 1000.0);
    retrain_options.min_edge_records =
        args.number_or("--retrain-min-records", std::size_t{64});
    const std::uint64_t interval_s = retrain_options.interval_ms / 1000;
    retrain_service = std::make_unique<retrain::RetrainService>(
        server, std::move(journal_options), std::move(retrain_options));
    if (interval_s == 0)
      std::printf("retrain loop enabled: journal %s, drift-alarm triggered\n",
                  journal_dir->c_str());
    else
      std::printf("retrain loop enabled: journal %s, every %llu s\n",
                  journal_dir->c_str(),
                  static_cast<unsigned long long>(interval_s));
  }

  // Handlers must be live before the startup banner goes out: a parent
  // scripting us through a pipe may signal the instant it sees the port,
  // and the default disposition would kill us without draining.
  std::signal(SIGINT, serve_stop_handler);
  std::signal(SIGTERM, serve_stop_handler);
  std::signal(SIGHUP, serve_hup_handler);
  server.start();
  std::printf("serving predictions on %s:%u (SIGHUP reloads %s)\n",
              args.value_or("--bind", "127.0.0.1").c_str(), server.port(),
              model_path.empty() ? "<admin reload only>" : model_path.c_str());
  // Parents driving us through a pipe (the signal-drain test) need the
  // port line before the first request, not at buffer-flush time.
  std::fflush(stdout);

  while (!g_serve_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_serve_hup) {
      g_serve_hup = 0;
      try {
        const std::uint64_t version = host.reload_from_file();
        std::printf("SIGHUP: model reloaded (version %llu)\n",
                    static_cast<unsigned long long>(version));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "SIGHUP reload failed: %s\n", error.what());
      }
    }
  }
  std::printf("draining...\n");
  server.stop();
  std::printf("stopped.\n");
  return 0;
}

/// Prometheus metric name: "serve.batch.latency_us" -> "xfl_serve_batch_latency_us".
std::string prometheus_name(const std::string& name) {
  std::string out = "xfl_";
  for (const char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped or a
/// real scraper rejects (or silently mis-parses) the whole family.
std::string prometheus_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// HELP text: backslash and newline are the escapable characters there
/// (quotes are legal verbatim). Our help strings embed the dotted
/// registry name, which is caller-controlled, so escape defensively.
std::string prometheus_help_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Prometheus-style text exposition of a Registry::to_json() snapshot
/// (the "metrics" field of a stats reply): counters and gauges as-is,
/// histograms as cumulative _bucket/_sum/_count series plus quantile
/// lines extracted by the server's streaming estimator. Each family
/// carries # HELP and # TYPE headers and escaped label values, so the
/// dump is valid scrape input for a real Prometheus server, not just
/// eyeball output.
void print_prometheus(const serve::JsonValue& metrics) {
  // One sample line, "<series> <value>", the value in the number codec.
  const auto sample = [](std::string line, double value) {
    line += ' ';
    append_number(line, value);
    std::puts(line.c_str());
  };
  const auto header = [](const std::string& prom, const std::string& name,
                         const char* type) {
    std::printf("# HELP %s %s\n# TYPE %s %s\n", prom.c_str(),
                prometheus_help_text("xferlearn registry metric " + name)
                    .c_str(),
                prom.c_str(), type);
  };
  if (const auto* counters = metrics.find("counters");
      counters && counters->is_object()) {
    for (const auto& [name, value] : counters->object) {
      if (!value.is_number()) continue;
      const std::string prom = prometheus_name(name);
      header(prom, name, "counter");
      std::printf("%s %.0f\n", prom.c_str(), value.number);
    }
  }
  if (const auto* gauges = metrics.find("gauges");
      gauges && gauges->is_object()) {
    for (const auto& [name, entry] : gauges->object) {
      const auto* value = entry.find("value");
      if (value == nullptr || !value->is_number()) continue;
      const std::string prom = prometheus_name(name);
      header(prom, name, "gauge");
      sample(prom, value->number);
      if (const auto* max = entry.find("max"); max && max->is_number())
        sample(prom + "_max", max->number);
    }
  }
  if (const auto* histograms = metrics.find("histograms");
      histograms && histograms->is_object()) {
    for (const auto& [name, entry] : histograms->object) {
      const std::string prom = prometheus_name(name);
      header(prom, name, "histogram");
      double cumulative = 0.0;
      if (const auto* buckets = entry.find("buckets");
          buckets && buckets->is_array()) {
        for (const auto& bucket : buckets->array) {
          const auto* le = bucket.find("le");
          const auto* count = bucket.find("count");
          if (le == nullptr || count == nullptr || !count->is_number())
            continue;
          cumulative += count->number;
          std::string le_text;
          if (le->is_number())
            append_number(le_text, le->number);
          else
            le_text = "+Inf";
          std::printf("%s_bucket{le=\"%s\"} %.0f\n", prom.c_str(),
                      prometheus_label_value(le_text).c_str(), cumulative);
        }
      }
      if (const auto* sum = entry.find("sum"); sum && sum->is_number())
        sample(prom + "_sum", sum->number);
      if (const auto* count = entry.find("count"); count && count->is_number())
        std::printf("%s_count %.0f\n", prom.c_str(), count->number);
      const std::pair<const char*, const char*> quantiles[] = {
          {"p50", "0.5"}, {"p95", "0.95"}, {"p99", "0.99"}};
      for (const auto& [field, quantile] : quantiles) {
        if (const auto* q = entry.find(field); q && q->is_number())
          sample(prom + "{quantile=\"" + prometheus_label_value(quantile) +
                     "\"}",
                 q->number);
      }
    }
  }
}

int cmd_request(const ArgList& args) {
  if (!args.value("--port")) {
    std::fprintf(stderr, "error: --port is required\n");
    return 2;
  }
  serve::PredictionClient client(
      args.value_or("--host", "127.0.0.1"),
      args.number_or("--port", std::uint16_t{0}));

  if (args.flag("--ping")) {
    if (!client.ping()) {
      std::fprintf(stderr, "error: ping failed\n");
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (args.flag("--stats")) {
    const auto stats = client.stats(/*registry=*/true);
    const auto* depth = stats.find("queue_depth");
    const auto* version = stats.find("version");
    const auto* kernel = stats.find("kernel");
    const auto* requests = stats.find("requests");
    const auto* rejected = stats.find("rejected");
    std::printf("queue depth:   %.0f\nmodel version: %.0f\n"
                "kernel:        %s\n"
                "requests:      %.0f\nrejected:      %.0f\n",
                depth ? depth->number : -1.0, version ? version->number : -1.0,
                kernel && kernel->is_string() ? kernel->string.c_str()
                                              : "unknown",
                requests ? requests->number : -1.0,
                rejected ? rejected->number : -1.0);
    if (const auto* latency = stats.find("latency_us")) {
      if (const auto* server = latency->find("server")) {
        const auto* p50 = server->find("p50");
        const auto* p95 = server->find("p95");
        const auto* p99 = server->find("p99");
        std::printf("server latency: p50 %.0f us, p95 %.0f us, p99 %.0f us\n",
                    p50 ? p50->number : 0.0, p95 ? p95->number : 0.0,
                    p99 ? p99->number : 0.0);
      }
    }
    if (const auto* drift = stats.find("drift")) {
      const auto* alarm = drift->find("alarm");
      const auto* feedback = drift->find("feedback");
      const auto* threshold = drift->find("threshold_pct");
      std::printf("drift alarm:   %s (feedback %.0f, threshold %.1f%%)\n",
                  alarm && alarm->is_bool() && alarm->boolean ? "RAISED"
                                                              : "clear",
                  feedback ? feedback->number : 0.0,
                  threshold ? threshold->number : 0.0);
      if (const auto* shift = drift->find("attribution_shift")) {
        const auto* valid = shift->find("valid");
        const auto* ranked = shift->find("ranked");
        if (valid && valid->is_bool() && valid->boolean && ranked &&
            ranked->is_array() && !ranked->array.empty()) {
          const auto& top = ranked->array.front();
          const auto* feature = top.find("feature");
          const auto* delta = top.find("delta_mbps");
          std::printf("drift shift:   %s moved %+.1f MB/s mean "
                      "|contribution| at the last alarm\n",
                      feature && feature->is_string() ? feature->string.c_str()
                                                      : "?",
                      delta ? delta->number : 0.0);
        }
      }
    }
    if (const auto* metrics = stats.find("metrics")) {
      std::printf("-- prometheus --\n");
      print_prometheus(*metrics);
    }
    return 0;
  }
  if (args.flag("--retrain-status")) {
    const auto reply = client.retrain_status();
    const auto* retrain = reply.find("retrain");
    if (retrain == nullptr) {
      std::fprintf(stderr, "error: malformed retrain-status reply\n");
      return 1;
    }
    const auto* enabled = retrain->find("enabled");
    if (enabled == nullptr || !enabled->is_bool() || !enabled->boolean) {
      std::printf("retrain: disabled (serve without --journal-dir)\n");
      return 0;
    }
    const auto number = [retrain](const char* name) {
      const auto* value = retrain->find(name);
      return value != nullptr && value->is_number() ? value->number : 0.0;
    };
    const auto text = [retrain](const char* name) -> std::string {
      const auto* value = retrain->find(name);
      return value != nullptr && value->is_string() ? value->string : "";
    };
    std::printf("retrain: enabled, worker %s\n",
                [retrain] {
                  const auto* running = retrain->find("running");
                  return running != nullptr && running->is_bool() &&
                                 running->boolean
                             ? "running"
                             : "stopped";
                }());
    std::printf("cycles:        %.0f (alarm %.0f, interval %.0f, "
                "manual %.0f)\n",
                number("cycles"), number("triggers_alarm"),
                number("triggers_interval"), number("triggers_manual"));
    std::printf("refits:        %.0f (accepted %.0f, rejected %.0f, "
                "skipped %.0f, errors %.0f)\n",
                number("refits"), number("accepted"), number("rejected"),
                number("skipped"), number("errors"));
    const std::string decision = text("last_decision");
    if (!decision.empty())
      std::printf("last gate:     %s on edge %s (candidate MdAPE %.1f%% vs "
                  "incumbent %.1f%%), model version %.0f\n",
                  decision.c_str(), text("last_edge").c_str(),
                  number("last_candidate_mdape_pct"),
                  number("last_incumbent_mdape_pct"), number("last_version"));
    const std::string error = text("last_error");
    if (!error.empty()) std::printf("last error:    %s\n", error.c_str());
    return 0;
  }
  if (const auto trace = args.value("--feedback")) {
    const auto observed = args.value("--observed-mbps");
    if (!observed) {
      std::fprintf(stderr,
                   "error: --feedback requires --observed-mbps <rate>\n");
      return 2;
    }
    const auto reply =
        client.feedback(*trace, args.number_or("--observed-mbps", 0.0));
    if (!reply.ok) {
      std::fprintf(stderr, "error: feedback rejected\n");
      return 1;
    }
    if (!reply.matched) {
      std::printf("trace %s not found (evicted or already reported)\n",
                  trace->c_str());
      return 1;
    }
    std::printf("trace %s: predicted %.1f MB/s, observed %s MB/s, "
                "APE %.1f%%\n",
                trace->c_str(), reply.predicted_mbps, observed->c_str(),
                reply.ape_pct);
    std::printf("model version %llu: windowed MdAPE %.1f%% over %llu "
                "samples, drift alarm %s\n",
                static_cast<unsigned long long>(reply.model_version),
                reply.mdape_pct,
                static_cast<unsigned long long>(reply.window),
                reply.alarm ? "RAISED" : "clear");
    return 0;
  }
  if (args.flag("--reload")) {
    const std::uint64_t version = client.reload(args.value_or("--path", ""));
    std::printf("reloaded; model version %llu\n",
                static_cast<unsigned long long>(version));
    return 0;
  }

  const auto planned = planned_transfer(args);
  if (!planned) {
    std::fprintf(stderr,
                 "error: --src, --dst and --bytes are required (or use "
                 "--ping/--stats/--reload/--retrain-status)\n");
    return 2;
  }
  const auto deadline_ms = args.number_or("--deadline-ms", std::uint64_t{0});

  const auto reply = client.predict(*planned, {}, deadline_ms);
  if (!reply.ok) {
    std::fprintf(stderr, "error: %s: %s\n", reply.error.c_str(),
                 reply.message.c_str());
    return 1;
  }
  std::printf("predicted rate: %.1f MB/s (%s model, version %llu)\n",
              reply.rate_mbps, reply.model.c_str(),
              static_cast<unsigned long long>(reply.model_version));
  std::printf("predicted duration: %.0f s for %s\n",
              planned->bytes / mbps(reply.rate_mbps),
              format_bytes(planned->bytes).c_str());
  if (!reply.trace_id.empty())
    std::printf("trace id: %s (server %.3f ms; report the observed rate "
                "with `request --feedback %s --observed-mbps X`)\n",
                reply.trace_id.c_str(), reply.server_ms,
                reply.trace_id.c_str());
  return 0;
}

/// One explained prediction from a running server: rate plus the Saabas
/// per-feature attribution, printed so the sum structure is visible
/// (bias + contributions = raw score, clamped to the serving floor).
int cmd_explain(const ArgList& args) {
  const auto planned = planned_transfer(args);
  if (!args.value("--port") || !planned) {
    std::fprintf(stderr,
                 "error: --port, --src, --dst and --bytes are required\n");
    return 2;
  }
  serve::PredictionClient client(
      args.value_or("--host", "127.0.0.1"),
      args.number_or("--port", std::uint16_t{0}));
  if (args.flag("--binary")) client.negotiate_binary();

  const auto deadline_ms = args.number_or("--deadline-ms", std::uint64_t{0});
  const auto top_k = args.number_or("--top-k", std::uint16_t{0});

  const auto reply = client.explain(*planned, {}, deadline_ms, top_k);
  if (!reply.ok) {
    std::fprintf(stderr, "error: %s: %s\n", reply.error.c_str(),
                 reply.message.c_str());
    return 1;
  }
  std::printf("predicted rate: %.1f MB/s (%s model, version %llu)\n",
              reply.rate_mbps, reply.model.c_str(),
              static_cast<unsigned long long>(reply.model_version));
  std::printf("raw score:      %.3f MB/s = bias %.3f + contributions\n",
              reply.raw_mbps, reply.bias_mbps);
  if (reply.low_mbps != 0.0 || reply.high_mbps != 0.0)
    std::printf("interval:       [%.1f, %.1f] MB/s\n", reply.low_mbps,
                reply.high_mbps);
  std::printf("contributions (MB/s, strongest first%s):\n",
              top_k > 0 ? ", truncated by --top-k" : "");
  double shown_sum = 0.0;
  for (const auto& [feature, mbps] : reply.contributions) {
    std::printf("  %+12.3f  %s\n", mbps, feature.c_str());
    shown_sum += mbps;
  }
  std::printf("  %+12.3f  (bias)\n", reply.bias_mbps);
  std::printf("  %+12.3f  (sum of shown terms)\n",
              shown_sum + reply.bias_mbps);
  if (!reply.trace_id.empty())
    std::printf("trace id: %s (server %.3f ms)\n", reply.trace_id.c_str(),
                reply.server_ms);
  return 0;
}

int run_command(const std::string& command, const ArgList& args) {
  if (command == "simulate") return cmd_simulate(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "train") return cmd_train(args);
  if (command == "evaluate") return cmd_evaluate(args);
  if (command == "predict") return cmd_predict(args);
  if (command == "predict-batch") return cmd_predict_batch(args);
  if (command == "export-dataset") return cmd_export_dataset(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "request") return cmd_request(args);
  if (command == "explain") return cmd_explain(args);
  return usage();
}

/// Install logging/tracing from the observability flags. Returns false on
/// an unparsable --log-level.
bool setup_observability(const ArgList& args) {
  obs::LogConfig config;
  if (const auto level = args.value("--log-level")) {
    if (!obs::parse_log_level(*level, config.min_level)) {
      std::fprintf(stderr,
                   "error: bad --log-level '%s' (want trace|debug|info|warn|"
                   "error|off)\n",
                   level->c_str());
      return false;
    }
  }
  config.json = args.flag("--log-json");
  obs::configure_logging(config);
  if (args.value("--trace-out")) obs::set_tracing_enabled(true);
  return true;
}

/// End-of-run metrics/trace dump. Runs even when the command failed — a
/// failing run is exactly when the counters are interesting.
int flush_observability(const ArgList& args, int rc) {
  if (const auto path = args.value("--metrics-out")) {
    std::ofstream out(*path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    } else {
      obs::Registry::instance().write_json(out);
      out << '\n';
    }
  }
  if (const auto path = args.value("--trace-out")) {
    std::ofstream out(*path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    } else {
      obs::write_chrome_trace(out);
    }
  }
  if (args.flag("--print-metrics")) {
    std::printf("-- metrics --\n");
    obs::Registry::instance().write_text(std::cout);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const ArgList args(argc - 2, argv + 2);
  if (const auto flag = args.repeated_flag()) {
    std::fprintf(stderr, "error: %s given more than once\n", flag->c_str());
    return 2;
  }
  if (!setup_observability(args)) return 2;
  int rc;
  try {
    rc = run_command(command, args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    XFL_LOG(error) << "command failed" << obs::kv("command", command)
                   << obs::kv("what", error.what());
    rc = 1;
  }
  return flush_observability(args, rc);
}
