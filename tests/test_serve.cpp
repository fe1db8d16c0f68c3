// End-to-end contracts for the src/serve subsystem, in-process over
// loopback TCP:
//   - concurrent clients receive predictions bit-identical to direct
//     TransferPredictor::predict_rate_mbps calls;
//   - atomic hot reload under sustained load loses zero requests and
//     never mixes state from two models in one answer;
//   - a full queue yields structured "overloaded" rejections, not
//     latency collapse or a hang;
//   - malformed frames get error responses and the connection survives;
//   - graceful drain answers everything admitted before shutdown.
// The suite carries the tier2-serve label: run it under
// -DXFL_SANITIZE=thread like the other concurrency suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "core/predictor.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace xfl::serve {
namespace {

const logs::LogStore& shared_log() {
  static const logs::LogStore log = [] {
    sim::EsnetConfig config;
    config.transfers = 1200;
    config.duration_s = 2.0 * 86400.0;
    config.seed = 17;
    return sim::make_esnet_testbed(config).run().log;
  }();
  return log;
}

std::shared_ptr<const core::TransferPredictor> fitted_predictor(int trees) {
  core::TransferPredictor::Options options;
  options.min_edge_transfers = 50;
  options.gbt.trees = trees;
  auto predictor = std::make_shared<core::TransferPredictor>(options);
  predictor->fit(shared_log());
  return predictor;
}

/// Model A (80 trees) and model B (40 trees): same log, different
/// hyper-parameters, so their answers for the same transfer differ and a
/// response can be attributed to exactly one of them.
std::shared_ptr<const core::TransferPredictor> model_a() {
  static const auto predictor = fitted_predictor(80);
  return predictor;
}

std::shared_ptr<const core::TransferPredictor> model_b() {
  static const auto predictor = fitted_predictor(40);
  return predictor;
}

std::string saved_model_path(
    const std::shared_ptr<const core::TransferPredictor>& predictor,
    const std::string& name) {
  const std::string path = testing::TempDir() + name;
  predictor->save_file(path);
  return path;
}

/// A deterministic mix of planned transfers spanning edge-model and
/// global-fallback routes.
std::vector<core::PlannedTransfer> transfer_mix() {
  std::vector<core::PlannedTransfer> mix;
  for (int i = 0; i < 12; ++i) {
    core::PlannedTransfer planned;
    planned.src = static_cast<endpoint::EndpointId>(i % 2 == 0 ? 0 : 2);
    planned.dst = static_cast<endpoint::EndpointId>(i % 3 == 0 ? 1 : 3);
    planned.bytes = (1.0 + i) * 5.0 * kGB;
    planned.files = static_cast<std::uint64_t>(1 + i * 3);
    planned.dirs = static_cast<std::uint64_t>(1 + i % 4);
    planned.concurrency = static_cast<std::uint32_t>(1 + i % 8);
    planned.parallelism = static_cast<std::uint32_t>(1 + (i * 5) % 8);
    mix.push_back(planned);
  }
  return mix;
}

features::ContentionFeatures heavy_load() {
  features::ContentionFeatures load;
  load.k_sout = mbps(800.0);
  load.k_din = mbps(500.0);
  load.g_src = 8.0;
  load.g_dst = 4.0;
  load.s_sout = 32.0;
  load.s_din = 16.0;
  return load;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesPredictFrameWithDefaults) {
  const Frame frame =
      parse_frame(R"({"id":"7","src":3,"dst":4,"bytes":5e10})");
  ASSERT_EQ(frame.kind, Frame::Kind::kPredict);
  EXPECT_EQ(frame.reply.id, "7");
  EXPECT_EQ(frame.predict.transfer.src, 3u);
  EXPECT_EQ(frame.predict.transfer.dst, 4u);
  EXPECT_DOUBLE_EQ(frame.predict.transfer.bytes, 5e10);
  EXPECT_EQ(frame.predict.transfer.files, 1u);
  EXPECT_EQ(frame.predict.transfer.concurrency, 4u);
  EXPECT_EQ(frame.predict.deadline_ms, 0u);
}

TEST(ServeProtocol, ParsesLoadObjectAndNumericId) {
  const Frame frame = parse_frame(
      R"({"id":12,"src":0,"dst":1,"bytes":1e9,"load":{"k_sout":2.5e8,"g_dst":4}})");
  ASSERT_EQ(frame.kind, Frame::Kind::kPredict);
  EXPECT_EQ(frame.reply.id, "12");
  EXPECT_DOUBLE_EQ(frame.predict.load.k_sout, 2.5e8);
  EXPECT_DOUBLE_EQ(frame.predict.load.g_dst, 4.0);
  EXPECT_DOUBLE_EQ(frame.predict.load.k_din, 0.0);
}

TEST(ServeProtocol, RejectsMalformedFrames) {
  EXPECT_EQ(parse_frame("not json at all").kind, Frame::Kind::kBad);
  EXPECT_EQ(parse_frame("[1,2,3]").kind, Frame::Kind::kBad);
  // Missing required fields.
  EXPECT_EQ(parse_frame(R"({"id":"1","src":0,"bytes":1e9})").kind,
            Frame::Kind::kBad);
  // Unknown keys are rejected, not silently ignored.
  EXPECT_EQ(parse_frame(R"({"src":0,"dst":1,"bytes":1,"bogus":2})").kind,
            Frame::Kind::kBad);
  // Type and range violations.
  EXPECT_EQ(parse_frame(R"({"src":-1,"dst":1,"bytes":1})").kind,
            Frame::Kind::kBad);
  EXPECT_EQ(parse_frame(R"({"src":0,"dst":1,"bytes":"big"})").kind,
            Frame::Kind::kBad);
  EXPECT_EQ(parse_frame(R"({"src":0,"dst":1,"bytes":1,"files":0})").kind,
            Frame::Kind::kBad);
  EXPECT_EQ(
      parse_frame(R"({"src":0,"dst":1,"bytes":1,"load":{"k_zzz":1}})").kind,
      Frame::Kind::kBad);
  // The id survives into the bad frame for error correlation.
  const Frame bad = parse_frame(R"({"id":"keep","src":0,"bytes":1})");
  EXPECT_EQ(bad.kind, Frame::Kind::kBad);
  EXPECT_EQ(bad.reply.id, "keep");
}

TEST(ServeProtocol, RequestLineRoundTripsThroughParser) {
  core::PlannedTransfer planned;
  planned.src = 5;
  planned.dst = 9;
  planned.bytes = 1.25e11;
  planned.files = 17;
  planned.dirs = 3;
  planned.concurrency = 6;
  planned.parallelism = 2;
  const features::ContentionFeatures load = heavy_load();
  const Frame frame =
      parse_frame(predict_request_line("42", planned, load, 250));
  ASSERT_EQ(frame.kind, Frame::Kind::kPredict);
  EXPECT_EQ(frame.predict.transfer.src, planned.src);
  EXPECT_EQ(frame.predict.transfer.dst, planned.dst);
  EXPECT_DOUBLE_EQ(frame.predict.transfer.bytes, planned.bytes);
  EXPECT_EQ(frame.predict.transfer.files, planned.files);
  EXPECT_EQ(frame.predict.deadline_ms, 250u);
  EXPECT_DOUBLE_EQ(frame.predict.load.k_sout, load.k_sout);
  EXPECT_DOUBLE_EQ(frame.predict.load.s_din, load.s_din);
}

ReplyTo reply_to(std::string id, std::uint16_t top_k = 0) {
  ReplyTo to;
  to.id = std::move(id);
  to.top_k = top_k;
  return to;
}

PredictOutcome predicted(double rate_mbps, bool edge_model,
                         std::uint64_t model_version) {
  PredictOutcome outcome;
  outcome.ok = true;
  outcome.rate_mbps = rate_mbps;
  outcome.edge_model = edge_model;
  outcome.model_version = model_version;
  return outcome;
}

PredictOutcome explained(const core::RateExplanation& explanation,
                         std::uint64_t model_version) {
  PredictOutcome outcome =
      predicted(explanation.rate_mbps, explanation.edge_model, model_version);
  outcome.explained = true;
  outcome.explanation = explanation;
  return outcome;
}

PredictOutcome failed(const char* code, std::string message) {
  PredictOutcome outcome;
  outcome.error = code;
  outcome.message = std::move(message);
  return outcome;
}

TEST(ServeProtocol, ResponseRatePreservesDoubleBits) {
  const double rate = 123.45678901234567;
  const std::string line = encode_reply(
      reply_to("1"), predicted(rate, true, 3), /*trace_id=*/17,
      /*server_ms=*/0.25);
  const PredictReply reply = PredictionClient::parse_reply(line);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.rate_mbps, rate);  // Exact: %.17g round-trips doubles.
  EXPECT_EQ(reply.model, "edge");
  EXPECT_EQ(reply.model_version, 3u);
  EXPECT_EQ(reply.trace_id, "t17");
  EXPECT_DOUBLE_EQ(reply.server_ms, 0.25);
}

/// An attribution with one dominant term and an |mbps| tie (files vs.
/// k_sout), so rank order, tie order and top_k truncation all show in the
/// reply bytes. bias + sum(contributions) == raw_mbps exactly.
core::RateExplanation pinned_explanation() {
  core::RateExplanation explanation;
  explanation.rate_mbps = 312.5;
  explanation.raw_mbps = 312.5;
  explanation.bias_mbps = 100.25;
  explanation.low_mbps = 250.0;
  explanation.high_mbps = 375.0;
  explanation.edge_model = true;
  explanation.feature_names = {"bytes", "files", "k_sout", "g_src"};
  explanation.contributions = {200.0, -12.5, 12.5, 12.25};
  return explanation;
}

// Every JSON predict-path reply, byte for byte. The expected strings are
// the wire contract; only the calls that build the replies may change.
TEST(ServeProtocol, JsonReplyBytesArePinned) {
  EXPECT_EQ(encode_reply(reply_to("7"), predicted(123.45678901234567, true, 3),
                         17, 0.25),
            R"({"id":"7","ok":true,"rate_mbps":123.45678901234567,)"
            R"("model":"edge","version":3,"trace_id":"t17","server_ms":0.25})"
            "\n");
  EXPECT_EQ(encode_reply(reply_to("8"), predicted(0.1, false, 12), 9001, 1.5),
            R"({"id":"8","ok":true,"rate_mbps":0.10000000000000001,)"
            R"("model":"global","version":12,"trace_id":"t9001",)"
            R"("server_ms":1.5})"
            "\n");
  const core::RateExplanation explanation = pinned_explanation();
  EXPECT_EQ(encode_reply(reply_to("9"), explained(explanation, 4), 18, 0.5),
            R"({"id":"9","ok":true,"rate_mbps":312.5,"raw_mbps":312.5,)"
            R"("bias_mbps":100.25,"low_mbps":250,"high_mbps":375,)"
            R"("model":"edge","version":4,"trace_id":"t18","server_ms":0.5,)"
            R"("contributions":[{"feature":"bytes","mbps":200},)"
            R"({"feature":"files","mbps":-12.5},)"
            R"({"feature":"k_sout","mbps":12.5},)"
            R"({"feature":"g_src","mbps":12.25}]})"
            "\n");
  EXPECT_EQ(encode_reply(reply_to("10", 2), explained(explanation, 4), 19,
                         0.75),
            R"({"id":"10","ok":true,"rate_mbps":312.5,"raw_mbps":312.5,)"
            R"("bias_mbps":100.25,"low_mbps":250,"high_mbps":375,)"
            R"("model":"edge","version":4,"trace_id":"t19","server_ms":0.75,)"
            R"("contributions":[{"feature":"bytes","mbps":200},)"
            R"({"feature":"files","mbps":-12.5}]})"
            "\n");
  EXPECT_EQ(encode_reply(reply_to(""), failed(kErrBadRequest, "bad \"frame\""),
                         0, 0.0),
            R"({"id":"","ok":false,"error":"bad_request",)"
            R"("message":"bad \"frame\""})"
            "\n");
  EXPECT_EQ(encode_reply(reply_to("11"),
                         failed(kErrOverloaded, "prediction queue full"), 44,
                         2.5),
            R"({"id":"11","ok":false,"error":"overloaded",)"
            R"("message":"prediction queue full","trace_id":"t44",)"
            R"("server_ms":2.5})"
            "\n");
}

// The logger and the wire protocol share one JSON string writer
// (obs::append_json_string), so a JSON log line parses back through the
// wire parser to the bytes that went in.
TEST(ServeProtocol, JsonLogLineParsesBackToTheSameBytes) {
  const std::string hostile = "say \"hi\" \\ back\nslash\x01" "end";
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::configure_logging({obs::LogLevel::kInfo, /*json=*/true, sink});
  XFL_LOG(info) << hostile << obs::kv("value", hostile);
  obs::configure_logging({});
  std::string line;
  std::rewind(sink);
  for (int c = std::fgetc(sink); c != EOF && c != '\n'; c = std::fgetc(sink))
    line.push_back(static_cast<char>(c));
  std::fclose(sink);

  const JsonValue record = parse_json(line);
  const JsonValue* msg = record.find("msg");
  const JsonValue* value = record.find("value");
  ASSERT_NE(msg, nullptr) << line;
  ASSERT_NE(value, nullptr) << line;
  EXPECT_EQ(msg->string, hostile);
  EXPECT_EQ(value->string, hostile);
}

TEST(ServeProtocol, TraceIdStringsRoundTrip) {
  std::uint64_t parsed = 0;
  EXPECT_TRUE(parse_trace_id(trace_id_string(17), parsed));
  EXPECT_EQ(parsed, 17u);
  EXPECT_FALSE(parse_trace_id("17", parsed));   // Missing prefix.
  EXPECT_FALSE(parse_trace_id("t", parsed));    // No digits.
  EXPECT_FALSE(parse_trace_id("t1x", parsed));  // Trailing junk.
}

TEST(ServeProtocol, FeedbackFramesParse) {
  const Frame frame =
      parse_frame(R"({"id":"9","feedback":"t42","observed_mbps":212.5})");
  ASSERT_EQ(frame.kind, Frame::Kind::kFeedback);
  EXPECT_EQ(frame.reply.id, "9");
  EXPECT_EQ(frame.feedback.trace_id, 42u);
  EXPECT_DOUBLE_EQ(frame.feedback.observed_mbps, 212.5);

  // Strictness: bad trace ids, non-positive rates, unknown keys.
  EXPECT_EQ(parse_frame(R"({"feedback":"42","observed_mbps":1})").kind,
            Frame::Kind::kBad);
  EXPECT_EQ(parse_frame(R"({"feedback":"t42","observed_mbps":0})").kind,
            Frame::Kind::kBad);
  EXPECT_EQ(parse_frame(R"({"feedback":"t42","observed_mbps":1,"x":1})").kind,
            Frame::Kind::kBad);
  EXPECT_EQ(parse_frame(R"({"feedback":"t42"})").kind, Frame::Kind::kBad);
}

TEST(ServeProtocol, RegistryFlagOnlyValidWithStats) {
  const Frame stats = parse_frame(R"({"cmd":"stats","registry":true})");
  ASSERT_EQ(stats.kind, Frame::Kind::kAdmin);
  EXPECT_TRUE(stats.admin.registry);
  EXPECT_EQ(parse_frame(R"({"cmd":"ping","registry":true})").kind,
            Frame::Kind::kBad);
  EXPECT_EQ(parse_frame(R"({"cmd":"stats","registry":1})").kind,
            Frame::Kind::kBad);
}

// ----------------------------------------------------------- micro-batcher

/// Admit one item on shard 0 through submit_burst, the batcher's one
/// admission path; a burst of one is admitted whole or not at all.
MicroBatcher::Admission submit_one(MicroBatcher& batcher, BatchItem item) {
  std::vector<BatchItem> items;
  items.push_back(std::move(item));
  MicroBatcher::Admission status = MicroBatcher::Admission::kAccepted;
  const std::size_t admitted = batcher.submit_burst(items, 0, status);
  EXPECT_EQ(admitted, status == MicroBatcher::Admission::kAccepted ? 1u : 0u);
  return status;
}

TEST(MicroBatcher, BatchedAnswersMatchDirectCallsBitIdentically) {
  ModelHost host(model_a());
  MicroBatcher batcher(host, {.max_batch = 8, .queue_capacity = 64});
  const auto mix = transfer_mix();

  std::mutex mutex;
  std::vector<std::pair<std::size_t, double>> answered;
  std::atomic<std::size_t> pending{mix.size()};
  for (std::size_t i = 0; i < mix.size(); ++i) {
    BatchItem item;
    item.transfer = mix[i];
    item.load = heavy_load();
    item.done = [&, i](const BatchItem&, const PredictOutcome& outcome) {
      ASSERT_TRUE(outcome.ok);
      std::lock_guard lock(mutex);
      answered.emplace_back(i, outcome.rate_mbps);
      pending.fetch_sub(1);
    };
    ASSERT_EQ(submit_one(batcher, std::move(item)),
              MicroBatcher::Admission::kAccepted);
  }
  batcher.drain_and_stop();
  ASSERT_EQ(pending.load(), 0u);
  ASSERT_EQ(answered.size(), mix.size());
  for (const auto& [i, rate] : answered)
    EXPECT_EQ(rate, model_a()->predict_rate_mbps(mix[i], heavy_load()))
        << "row " << i;
}

TEST(MicroBatcher, ExpiredDeadlineTimesOutInsteadOfPredicting) {
  ModelHost host(model_a());
  MicroBatcher batcher(host, {.max_batch = 8, .queue_capacity = 8});
  batcher.pause();
  std::atomic<int> timeouts{0};
  BatchItem item;
  item.transfer = transfer_mix()[0];
  item.deadline_ns = 1;  // Monotonic clock is far past 1ns already.
  item.done = [&](const BatchItem&, const PredictOutcome& outcome) {
    EXPECT_FALSE(outcome.ok);
    EXPECT_STREQ(outcome.error, kErrTimeout);
    timeouts.fetch_add(1);
  };
  ASSERT_EQ(submit_one(batcher, std::move(item)),
            MicroBatcher::Admission::kAccepted);
  batcher.resume();
  batcher.drain_and_stop();
  EXPECT_EQ(timeouts.load(), 1);
}

TEST(MicroBatcher, RejectsWhenQueueFullAndAfterStop) {
  ModelHost host(model_a());
  MicroBatcher batcher(host, {.max_batch = 4, .queue_capacity = 2});
  batcher.pause();
  std::atomic<int> answered{0};
  auto make_item = [&] {
    BatchItem item;
    item.transfer = transfer_mix()[0];
    item.done = [&](const BatchItem&, const PredictOutcome&) {
      answered.fetch_add(1);
    };
    return item;
  };
  EXPECT_EQ(submit_one(batcher, make_item()),
            MicroBatcher::Admission::kAccepted);
  EXPECT_EQ(submit_one(batcher, make_item()),
            MicroBatcher::Admission::kAccepted);
  EXPECT_EQ(submit_one(batcher, make_item()),
            MicroBatcher::Admission::kOverloaded);
  EXPECT_EQ(batcher.queue_depth(), 2u);
  batcher.drain_and_stop();
  EXPECT_EQ(answered.load(), 2);  // Drain answered the admitted two.
  EXPECT_EQ(submit_one(batcher, make_item()),
            MicroBatcher::Admission::kShuttingDown);
}

// The batch stages and the queue wait are timed in nanoseconds and
// recorded in microseconds, so a 1-row batch's stages show as fractions,
// not as whole 0s and 1s.
TEST(MicroBatcher, StageTimersResolveSubMicrosecondSteps) {
  obs::Registry::instance().reset();
  const std::vector<const obs::Histogram*> stages = {
      &obs::histogram("serve.request.queue_wait_us",
                      obs::quantile_latency_bounds_us()),
      &obs::histogram("serve.batch.assemble_us",
                      obs::quantile_latency_bounds_us()),
      &obs::histogram("serve.batch.predict_us",
                      obs::quantile_latency_bounds_us()),
      &obs::histogram("serve.batch.respond_us",
                      obs::quantile_latency_bounds_us()),
      &obs::histogram("serve.batch.latency_us",
                      obs::default_latency_bounds_us())};
  constexpr std::size_t kBatches = 1000;
  ModelHost host(model_a());
  MicroBatcher batcher(host, {.max_batch = 1, .queue_capacity = kBatches});
  const auto mix = transfer_mix();
  std::atomic<std::size_t> answered{0};
  for (std::size_t i = 0; i < kBatches; ++i) {
    BatchItem item;
    item.transfer = mix[i % mix.size()];
    item.done = [&answered](const BatchItem&,
                            const PredictOutcome& outcome) {
      EXPECT_TRUE(outcome.ok);
      answered.fetch_add(1);
    };
    ASSERT_EQ(submit_one(batcher, std::move(item)),
              MicroBatcher::Admission::kAccepted);
  }
  batcher.drain_and_stop();
  EXPECT_EQ(answered.load(), kBatches);
  for (const obs::Histogram* stage : stages) {
    const auto snap = stage->snapshot();
    EXPECT_EQ(snap.count, kBatches);
    EXPECT_NE(snap.sum, std::floor(snap.sum));
  }
}

// ------------------------------------------------------------- model host

TEST(ModelHost, FailedReloadKeepsServingOldModel) {
  ModelHost host(model_a(), "/nonexistent/model.txt");
  const auto before = host.snapshot();
  EXPECT_THROW(host.reload_from_file(), std::runtime_error);
  const auto after = host.snapshot();
  EXPECT_EQ(after.predictor.get(), before.predictor.get());
  EXPECT_EQ(after.version, before.version);
}

TEST(ModelHost, ReloadSwapsModelAndBumpsVersion) {
  const std::string path_b = saved_model_path(model_b(), "host_reload_b.txt");
  ModelHost host(model_a());
  const auto before = host.snapshot();
  EXPECT_EQ(before.version, 1u);
  const std::uint64_t version = host.reload_from_file(path_b);
  EXPECT_EQ(version, 2u);
  const auto after = host.snapshot();
  EXPECT_NE(after.predictor.get(), before.predictor.get());
  // The reloaded model answers like B, not like A.
  const auto planned = transfer_mix()[0];
  EXPECT_EQ(after.predictor->predict_rate_mbps(planned),
            model_b()->predict_rate_mbps(planned));
}

TEST(ModelHost, SwapBuiltOnStaleVersionIsRefused) {
  const std::string path_b = saved_model_path(model_b(), "host_stale_b.txt");
  ModelHost host(model_a());
  const std::uint64_t built_on = host.version();
  const auto candidate = std::make_shared<const core::TransferPredictor>(
      *model_a());
  // An operator reload lands while the candidate is built on version 1.
  ASSERT_EQ(host.reload_from_file(path_b), 2u);
  const auto before = host.snapshot();
  EXPECT_EQ(host.swap(candidate, built_on), 0u);
  const auto after = host.snapshot();
  EXPECT_EQ(after.predictor.get(), before.predictor.get());
  EXPECT_EQ(after.version, before.version);
  // Built on the version that serves, it publishes.
  EXPECT_EQ(host.swap(candidate, after.version), 3u);
  EXPECT_EQ(host.snapshot().predictor.get(), candidate.get());
}

// ------------------------------------------------------------- end to end

struct RunningServer {
  explicit RunningServer(PredictionServer::Options options = {}) {
    host = std::make_unique<ModelHost>(model_a());
    server = std::make_unique<PredictionServer>(*host, options);
    server->start();
  }
  std::unique_ptr<ModelHost> host;
  std::unique_ptr<PredictionServer> server;
};

TEST(ServeE2E, ConcurrentClientsGetBitIdenticalAnswers) {
  RunningServer running({.max_batch = 8, .queue_capacity = 256, .monitor = {}});
  const auto mix = transfer_mix();
  const auto load = heavy_load();
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PredictionClient client("127.0.0.1", running.server->port());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto& planned = mix[(c + r) % mix.size()];
        const bool with_load = r % 2 == 0;
        const auto reply =
            client.predict(planned, with_load ? load : features::ContentionFeatures{});
        const double expected = model_a()->predict_rate_mbps(
            planned, with_load ? load : features::ContentionFeatures{});
        if (!reply.ok || reply.rate_mbps != expected) failures.fetch_add(1);
        const bool edge =
            model_a()->has_edge_model({planned.src, planned.dst});
        if (reply.model != (edge ? "edge" : "global")) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServeE2E, HotReloadUnderLoadLosesNothingAndMixesNoTornState) {
  const std::string path_a = saved_model_path(model_a(), "serve_model_a.txt");
  const std::string path_b = saved_model_path(model_b(), "serve_model_b.txt");

  // The on-disk round trip is what the server actually serves after a
  // reload; precompute both models' expected answers from reloaded copies
  // so bit-identity is checked against exactly what load_file() produces.
  const auto disk_a = std::make_shared<const core::TransferPredictor>(
      core::TransferPredictor::load_file(path_a));
  const auto disk_b = std::make_shared<const core::TransferPredictor>(
      core::TransferPredictor::load_file(path_b));

  const auto mix = transfer_mix();
  std::vector<double> expected_a, expected_b;
  for (const auto& planned : mix) {
    expected_a.push_back(disk_a->predict_rate_mbps(planned));
    expected_b.push_back(disk_b->predict_rate_mbps(planned));
  }
  // The two models must actually disagree for attribution to mean much.
  ASSERT_NE(expected_a[0], expected_b[0]);

  ModelHost host(disk_a, path_a);
  PredictionServer server(
      host, {.max_batch = 8, .queue_capacity = 256, .monitor = {}});
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> max_version_seen{1};
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PredictionClient client("127.0.0.1", server.port());
      std::size_t i = c;
      while (!stop.load()) {
        const std::size_t index = i++ % mix.size();
        const auto reply = client.predict(mix[index]);
        if (!reply.ok) {
          failures.fetch_add(1);  // Reload must lose zero requests.
          continue;
        }
        // Version 1 was published as A, every reload alternates B, A, ...
        // A torn answer — version from one model, rate from another —
        // fails here.
        const double expected = reply.model_version % 2 == 1
                                    ? expected_a[index]
                                    : expected_b[index];
        if (reply.rate_mbps != expected) failures.fetch_add(1);
        std::uint64_t seen = max_version_seen.load();
        while (reply.model_version > seen &&
               !max_version_seen.compare_exchange_weak(seen,
                                                       reply.model_version)) {
        }
      }
    });
  }

  // Reload repeatedly while the clients hammer the server.
  PredictionClient admin("127.0.0.1", server.port());
  for (int reload = 0; reload < 6; ++reload) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const std::string& next = reload % 2 == 0 ? path_b : path_a;
    EXPECT_EQ(admin.reload(next), static_cast<std::uint64_t>(reload + 2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  for (auto& thread : clients) thread.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0);
  // Both models actually served traffic during the run.
  EXPECT_GE(max_version_seen.load(), 2u);
}

TEST(ServeE2E, QueueOverflowYieldsStructuredOverloadedResponses) {
  RunningServer running({.max_batch = 64, .queue_capacity = 4, .monitor = {}});
  running.server->batcher().pause();

  PredictionClient client("127.0.0.1", running.server->port());
  const auto mix = transfer_mix();
  constexpr int kPipelined = 12;
  for (int i = 0; i < kPipelined; ++i)
    client.send_line(
        predict_request_line(std::to_string(i), mix[i % mix.size()]));

  // With the batcher paused, exactly queue_capacity requests are admitted
  // and the rest are rejected immediately — read those 8 rejections first.
  std::set<std::string> rejected_ids;
  for (int i = 0; i < kPipelined - 4; ++i) {
    const auto reply = PredictionClient::parse_reply(client.read_line());
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, kErrOverloaded);
    rejected_ids.insert(reply.id);
  }
  EXPECT_EQ(rejected_ids.size(), static_cast<std::size_t>(kPipelined - 4));

  running.server->batcher().resume();
  std::set<std::string> served_ids;
  for (int i = 0; i < 4; ++i) {
    const auto reply = PredictionClient::parse_reply(client.read_line());
    EXPECT_TRUE(reply.ok);
    served_ids.insert(reply.id);
  }
  // The admitted requests are the first four sent.
  EXPECT_EQ(served_ids, (std::set<std::string>{"0", "1", "2", "3"}));
}

TEST(ServeE2E, ExpiredDeadlineReturnsTimeoutNotAnswer) {
  RunningServer running({.max_batch = 8, .queue_capacity = 16, .monitor = {}});
  running.server->batcher().pause();
  PredictionClient client("127.0.0.1", running.server->port());
  client.send_line(predict_request_line("d", transfer_mix()[0], {},
                                        /*deadline_ms=*/1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  running.server->batcher().resume();
  const auto reply = PredictionClient::parse_reply(client.read_line());
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, kErrTimeout);
  EXPECT_EQ(reply.id, "d");
}

TEST(ServeE2E, MalformedFramesGetErrorsAndServerSurvives) {
  RunningServer running;
  PredictionClient client("127.0.0.1", running.server->port());

  const std::vector<std::string> garbage = {
      "this is not json",
      "{\"src\":0}",
      "{\"id\":\"x\",\"src\":0,\"dst\":1,\"bytes\":-5}",
      "{\"cmd\":\"selfdestruct\"}",
      "[]",
  };
  for (const auto& line : garbage) {
    client.send_line(line);
    const auto reply = PredictionClient::parse_reply(client.read_line());
    EXPECT_FALSE(reply.ok) << line;
    EXPECT_EQ(reply.error, kErrBadRequest) << line;
  }

  // The same connection still serves valid requests afterwards.
  const auto planned = transfer_mix()[0];
  const auto reply = client.predict(planned);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.rate_mbps, model_a()->predict_rate_mbps(planned));
}

TEST(ServeE2E, GracefulDrainAnswersEverythingAdmitted) {
  auto running = std::make_unique<RunningServer>(
      PredictionServer::Options{
          .max_batch = 64, .queue_capacity = 64, .monitor = {}});
  running->server->batcher().pause();
  PredictionClient client("127.0.0.1", running->server->port());
  const auto mix = transfer_mix();
  constexpr int kPipelined = 6;
  for (int i = 0; i < kPipelined; ++i)
    client.send_line(
        predict_request_line(std::to_string(i), mix[i % mix.size()]));
  // Give the connection thread time to admit all six into the queue, then
  // stop: drain clears the pause and answers them before closing.
  while (running->server->batcher().queue_depth() < kPipelined)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread stopper([&] { running->server->stop(); });
  std::set<std::string> answered;
  for (int i = 0; i < kPipelined; ++i) {
    const auto reply = PredictionClient::parse_reply(client.read_line());
    EXPECT_TRUE(reply.ok);
    answered.insert(reply.id);
  }
  stopper.join();
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kPipelined));
}

TEST(ServeE2E, AdminPingAndStats) {
  RunningServer running;
  PredictionClient client("127.0.0.1", running.server->port());
  EXPECT_TRUE(client.ping());

  const auto planned = transfer_mix()[0];
  ASSERT_TRUE(client.predict(planned).ok);
  const auto stats = client.stats();
  const auto* version = stats.find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, 1.0);
  ASSERT_NE(stats.find("queue_depth"), nullptr);
  ASSERT_NE(stats.find("requests"), nullptr);
}

TEST(ServeE2E, ReloadFailureAnswersErrorAndKeepsServing) {
  RunningServer running;
  PredictionClient client("127.0.0.1", running.server->port());
  EXPECT_THROW(client.reload("/nonexistent/model.txt"), std::runtime_error);
  const auto planned = transfer_mix()[0];
  const auto reply = client.predict(planned);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.rate_mbps, model_a()->predict_rate_mbps(planned));
  EXPECT_EQ(reply.model_version, 1u);
}

/// `text` (a model file, format xfl-predictor-v2) rewritten in the
/// previous format, v1, which also carried a standardisation line after
/// each model's feature names: the count, then that many means and sigmas.
std::string as_v1_model_file(std::string text) {
  const std::string magic = "xfl-predictor-v2";
  EXPECT_EQ(text.rfind(magic + "\n", 0), 0u);
  text.replace(0, magic.size(), "xfl-predictor-v1");
  for (const std::string label : {"edge-model\n", "global-model\n"}) {
    for (auto at = text.find(label); at != std::string::npos;
         at = text.find(label, at)) {
      const auto names = at + label.size();
      const auto next_line = text.find('\n', names) + 1;
      const std::size_t count = std::stoul(text.substr(names, 8));
      std::string moments = std::to_string(count);
      for (std::size_t i = 0; i < 2 * count; ++i)
        moments += i < count ? " 0" : " 1";
      text.insert(next_line, moments + "\n");
      at = next_line;
    }
  }
  return text;
}

// Hostile hot reloads: a truncated model, a byte-flipped model, a model
// whose first tree claims 2^30 nodes and a well-formed file of the previous
// format (v1). Each must come back as a structured reload_failed reply,
// count once in serve.reload.failed, and leave the old model serving: same
// version, answers bit-identical to direct calls.
TEST(ServeE2E, HostileReloadFilesFailCleanlyAndKeepServing) {
  std::string good;
  {
    std::ifstream in(saved_model_path(model_a(), "hostile_base.txt"),
                     std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(good.size(), 1000u);

  const std::string truncated = good.substr(0, good.size() / 2);
  // Turn the first digit past the middle into a letter: the number it sat
  // in no longer parses.
  std::string flipped = good;
  std::size_t at = flipped.find_first_of("0123456789", flipped.size() / 2);
  ASSERT_NE(at, std::string::npos);
  flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
  // The first GBT block: magic, header, importances, tree count, then the
  // first tree's node count.
  std::string crafted = good;
  at = crafted.find("xfl-gbt-v1\n");
  ASSERT_NE(at, std::string::npos);
  for (int line = 0; line < 4; ++line) at = crafted.find('\n', at) + 1;
  const std::size_t count_end = crafted.find('\n', at);
  crafted.replace(at, count_end - at, std::to_string(1u << 30));
  const std::string v1 = as_v1_model_file(good);

  RunningServer running;
  PredictionClient client("127.0.0.1", running.server->port());
  const auto planned = transfer_mix()[3];
  const std::vector<core::PlannedTransfer> one = {planned};
  const double expected = model_a()->predict_rates_mbps(one)[0];
  obs::Counter& failed = obs::counter("serve.reload.failed");
  const std::pair<const char*, const std::string*> hostile[] = {
      {"truncated", &truncated},
      {"flipped", &flipped},
      {"huge_node_count", &crafted},
      {"v1_format", &v1}};
  for (const auto& [name, bytes] : hostile) {
    SCOPED_TRACE(name);
    const std::string path =
        testing::TempDir() + "hostile_" + std::string(name) + ".txt";
    {
      std::ofstream out(path, std::ios::binary);
      out << *bytes;
    }
    const std::uint64_t failed_before = failed.value();
    std::string line = "{\"cmd\":\"reload\",\"id\":\"hostile\",\"path\":";
    append_json_string(line, path);
    line += "}";
    client.send_line(line);
    const PredictReply reload =
        PredictionClient::parse_reply(client.read_line());
    EXPECT_EQ(reload.id, "hostile");
    EXPECT_FALSE(reload.ok);
    EXPECT_EQ(reload.error, kErrReloadFailed);
    EXPECT_FALSE(reload.message.empty());
    EXPECT_EQ(failed.value(), failed_before + 1);
    EXPECT_EQ(running.host->version(), 1u);

    const auto reply = client.predict(planned);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.model_version, 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.rate_mbps),
              std::bit_cast<std::uint64_t>(expected));
  }
}

// Satellite of the telemetry PR: the serve-path spans recorded while
// concurrent clients hammer the server must export as well-formed Chrome
// trace JSON with well-nested (interval-contained) spans per thread.
// Per-thread begin/end pairs are monotone, so within one tid every event
// either contains or is disjoint from its successors — checkable with an
// end-time stack.
TEST(ServeE2E, ChromeTraceFromConcurrentLoadIsWellFormedAndWellNested) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  {
    auto running = std::make_unique<RunningServer>(
        PredictionServer::Options{
            .max_batch = 8, .queue_capacity = 256, .monitor = {}});
    const auto mix = transfer_mix();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 24;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        PredictionClient client("127.0.0.1", running->server->port());
        for (int i = 0; i < kPerThread; ++i) {
          const auto reply = client.predict(mix[(t + i) % mix.size()]);
          if (!reply.ok) {
            ++failures;
            continue;
          }
          // Exercise the feedback path under concurrency too.
          const auto fb = client.feedback(reply.trace_id, reply.rate_mbps);
          if (!fb.ok || !fb.matched) ++failures;
        }
      });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(failures.load(), 0);
    running->server->stop();
  }
  obs::set_tracing_enabled(false);

  // Export is parseable JSON with the trace_event envelope.
  std::ostringstream trace_out;
  obs::write_chrome_trace(trace_out);
  const auto doc = parse_json(trace_out.str());
  const auto* events_json = doc.find("traceEvents");
  ASSERT_NE(events_json, nullptr);
  EXPECT_FALSE(events_json->array.empty());

  // Per-tid well-nestedness: rebuild the span stack from the recorded
  // depths (sorted by start; parents before children on timestamp ties)
  // and assert every span's interval lies inside its enclosing span's.
  // Comparisons are <= on purpose — the clock has 1us granularity, so a
  // sub-microsecond child legitimately shares its parent's endpoints.
  auto events = obs::trace_events();
  ASSERT_FALSE(events.empty());
  std::map<std::uint32_t, std::vector<obs::TraceEvent>> by_tid;
  for (const auto& event : events) by_tid[event.tid].push_back(event);
  bool saw_request = false;
  bool saw_batch_stage = false;
  for (auto& [tid, tid_events] : by_tid) {
    std::stable_sort(tid_events.begin(), tid_events.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                                 : a.depth < b.depth;
                     });
    std::vector<obs::TraceEvent> open;
    for (const auto& event : tid_events) {
      saw_request |= std::string_view(event.name) == "serve.request";
      saw_batch_stage |= std::string_view(event.name) == "serve.batch.predict";
      ASSERT_GE(event.depth, 0) << event.name << " on tid " << tid;
      ASSERT_LE(event.depth, static_cast<std::int32_t>(open.size()))
          << event.name << " on tid " << tid
          << " claims a depth with no enclosing span";
      open.resize(static_cast<std::size_t>(event.depth));
      if (!open.empty()) {
        const auto& parent = open.back();
        EXPECT_LE(parent.ts_us, event.ts_us)
            << event.name << " starts before enclosing " << parent.name;
        EXPECT_LE(event.ts_us + event.dur_us, parent.ts_us + parent.dur_us)
            << event.name << " on tid " << tid << " outlives enclosing "
            << parent.name;
      }
      open.push_back(event);
    }
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_batch_stage);
  obs::clear_trace();
}

}  // namespace
}  // namespace xfl::serve
