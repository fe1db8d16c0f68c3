// Property and fuzz coverage for the length-prefixed binary frame codec,
// plus the end-to-end contract that matters most: a JSON client and a
// binary client asking the same server the same question get the same
// double, bit for bit.
//   - encode/decode round-trips over randomized requests and replies;
//   - truncation at EVERY byte offset of a valid frame is kNeedMore —
//     never a frame, never a crash, never a read past the buffer;
//   - random garbage decodes to *something* without UB (bounds-checked
//     cursor, all-or-nothing reads);
//   - interleaved JSON + binary connections on one server, including
//     kJson-wrapped admin traffic on a binary connection.
// Tier2-serve label: runs under the sanitizer configurations too, which
// is what turns "never UB" from a comment into a checked property.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/predictor.hpp"
#include "serve/client.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace xfl::serve {
namespace {

core::PlannedTransfer random_transfer(std::mt19937& rng) {
  core::PlannedTransfer planned;
  planned.src = std::uniform_int_distribution<endpoint::EndpointId>(0, 64)(rng);
  planned.dst = std::uniform_int_distribution<endpoint::EndpointId>(0, 64)(rng);
  planned.bytes =
      std::uniform_real_distribution<double>(1.0, 1e14)(rng);
  planned.files = std::uniform_int_distribution<std::uint64_t>(1, 1 << 20)(rng);
  planned.dirs = std::uniform_int_distribution<std::uint64_t>(1, 1 << 10)(rng);
  planned.concurrency =
      std::uniform_int_distribution<std::uint32_t>(1, 64)(rng);
  planned.parallelism =
      std::uniform_int_distribution<std::uint32_t>(1, 64)(rng);
  return planned;
}

features::ContentionFeatures random_load(std::mt19937& rng) {
  features::ContentionFeatures load;
  std::uniform_real_distribution<double> value(0.0, 5000.0);
  load.k_sout = value(rng);
  load.k_din = value(rng);
  load.g_src = value(rng);
  load.g_dst = value(rng);
  load.s_sout = value(rng);
  load.s_din = value(rng);
  return load;
}

/// Reply address of a packed request with wire id `id`.
ReplyTo packed_to(std::uint64_t id, std::uint16_t top_k = 0) {
  ReplyTo to;
  to.wire_id = id;
  to.packed = true;
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

PredictOutcome failed(const char* code, std::string message) {
  PredictOutcome outcome;
  outcome.error = code;
  outcome.message = std::move(message);
  return outcome;
}

// ------------------------------------------------------------ round trips

TEST(ServeBinaryCodec, PredictRequestRoundTripsRandomized) {
  std::mt19937 rng(1234);
  for (int round = 0; round < 500; ++round) {
    const auto planned = random_transfer(rng);
    const auto load = round % 3 == 0 ? features::ContentionFeatures{}
                                     : random_load(rng);
    const std::uint64_t id =
        std::uniform_int_distribution<std::uint64_t>(0, ~0ull)(rng);
    const std::uint64_t deadline_ms =
        std::uniform_int_distribution<std::uint64_t>(0, 86400000)(rng);
    const std::string wire =
        binary_predict_request(id, planned, load, deadline_ms);

    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
    ASSERT_EQ(decoded.type, BinaryType::kPredict);
    ASSERT_EQ(decoded.consumed, wire.size());

    const Frame frame = parse_binary_predict(decoded.payload);
    ASSERT_EQ(frame.kind, Frame::Kind::kPredict) << frame.error;
    EXPECT_TRUE(frame.reply.packed);
    EXPECT_EQ(frame.reply.wire_id, id);
    EXPECT_EQ(frame.predict.transfer.src, planned.src);
    EXPECT_EQ(frame.predict.transfer.dst, planned.dst);
    EXPECT_EQ(frame.predict.transfer.bytes, planned.bytes);  // Bit-exact.
    EXPECT_EQ(frame.predict.transfer.files, planned.files);
    EXPECT_EQ(frame.predict.transfer.dirs, planned.dirs);
    EXPECT_EQ(frame.predict.transfer.concurrency, planned.concurrency);
    EXPECT_EQ(frame.predict.transfer.parallelism, planned.parallelism);
    EXPECT_EQ(frame.predict.deadline_ms, deadline_ms);
    EXPECT_EQ(frame.predict.load.k_sout, load.k_sout);
    EXPECT_EQ(frame.predict.load.k_din, load.k_din);
    EXPECT_EQ(frame.predict.load.g_src, load.g_src);
    EXPECT_EQ(frame.predict.load.g_dst, load.g_dst);
    EXPECT_EQ(frame.predict.load.s_sout, load.s_sout);
    EXPECT_EQ(frame.predict.load.s_din, load.s_din);
  }
}

TEST(ServeBinaryCodec, ReplyFramesRoundTripRandomized) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint64_t> u64(0, ~0ull);
  std::uniform_real_distribution<double> rate(0.0, 1e6);
  for (int round = 0; round < 500; ++round) {
    const std::uint64_t id = u64(rng);
    const std::uint64_t version = u64(rng) % 10000;
    const std::uint64_t trace = u64(rng);
    const double mbps = rate(rng);
    const double server_ms = rate(rng) / 1000.0;
    const bool edge = round % 2 == 0;
    const std::string wire = encode_reply(
        packed_to(id), predicted(mbps, edge, version), trace, server_ms);
    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
    ASSERT_EQ(decoded.type, BinaryType::kPredictOk);
    const BinaryPredictReply reply =
        parse_binary_reply(decoded.type, decoded.payload);
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.id, id);
    EXPECT_EQ(reply.rate_mbps, mbps);  // Bit-exact, the protocol's point.
    EXPECT_EQ(reply.edge_model, edge);
    EXPECT_EQ(reply.model_version, version);
    EXPECT_EQ(reply.trace_id, trace);
    EXPECT_EQ(reply.server_ms, server_ms);
  }
}

TEST(ServeBinaryCodec, ErrorFramesRoundTripWithArbitraryMessages) {
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    // Messages with embedded NULs and high bytes: binary framing should
    // not care what the text contains.
    std::string message;
    const std::size_t length =
        std::uniform_int_distribution<std::size_t>(0, 300)(rng);
    for (std::size_t i = 0; i < length; ++i)
      message.push_back(static_cast<char>(
          std::uniform_int_distribution<int>(0, 255)(rng)));
    const std::uint64_t id =
        std::uniform_int_distribution<std::uint64_t>(0, ~0ull)(rng);
    const std::string wire =
        encode_reply(packed_to(id), failed(kErrOverloaded, message), 42, 1.5);
    const BinaryDecode decoded = decode_binary_frame(wire);
    ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
    ASSERT_EQ(decoded.type, BinaryType::kError);
    const BinaryPredictReply reply =
        parse_binary_reply(decoded.type, decoded.payload);
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.id, id);
    EXPECT_EQ(reply.error, kErrOverloaded);
    EXPECT_EQ(reply.message, message);
    EXPECT_EQ(reply.trace_id, 42u);
  }
}

TEST(ServeBinaryCodec, JsonFrameWrapsAndStripsNewlines) {
  const std::string wire = binary_json_frame("{\"cmd\":\"ping\"}\n");
  const BinaryDecode decoded = decode_binary_frame(wire);
  ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
  ASSERT_EQ(decoded.type, BinaryType::kJson);
  EXPECT_EQ(decoded.payload, "{\"cmd\":\"ping\"}");
}

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

// Every packed predict-path reply, byte for byte (hex, little-endian
// fields as the file header lays them out). The expected strings are the
// wire contract; only the calls that build the replies may change.
TEST(ServeBinaryCodec, ReplyBytesArePinned) {
  // u32 length | u8 type | u64 id | f64 rate | u8 flags | u64 version |
  // u64 trace_id | f64 server_ms
  EXPECT_EQ(
      hex(encode_reply(packed_to(7), predicted(312.5, true, 3), 17, 0.25)),
            "2a000000"
            "02"
            "0700000000000000"
            "0000000000887340"
            "01"
            "0300000000000000"
            "1100000000000000"
            "000000000000d03f");
  core::RateExplanation explanation;
  explanation.rate_mbps = 312.5;
  explanation.raw_mbps = 312.5;
  explanation.bias_mbps = 100.25;
  explanation.low_mbps = 250.0;
  explanation.high_mbps = 375.0;
  explanation.edge_model = false;
  explanation.feature_names = {"bytes", "files", "k_sout", "g_src"};
  explanation.contributions = {200.0, -12.5, 12.5, 12.25};
  // The kPredictOk fields, then f64 raw | bias | low | high, u16 count and
  // the top_k = 3 strongest (u16 name_len, name, f64 mbps) entries.
  PredictOutcome outcome = predicted(312.5, false, 4);
  outcome.explained = true;
  outcome.explanation = explanation;
  EXPECT_EQ(hex(encode_reply(packed_to(8, 3), outcome, 18, 0.5)),
            "7a000000"
            "05"
            "0800000000000000"
            "0000000000887340"
            "00"
            "0400000000000000"
            "1200000000000000"
            "000000000000e03f"
            "0000000000887340"
            "0000000000105940"
            "0000000000406f40"
            "0000000000707740"
            "0300"
            "0500" "6279746573" "0000000000006940"
            "0500" "66696c6573" "00000000000029c0"
            "0600" "6b5f736f7574" "0000000000002940");
  // u32 length | u8 type | u64 id | u64 trace_id | f64 server_ms |
  // u16 code_len, code | u16 message_len, message
  EXPECT_EQ(
      hex(encode_reply(packed_to(9), failed(kErrTimeout, "late"), 44, 1.5)),
            "28000000"
            "03"
            "0900000000000000"
            "2c00000000000000"
            "000000000000f83f"
            "0700" "74696d656f7574"
            "0400" "6c617465");
}

// ------------------------------------------------------------- truncation

TEST(ServeBinaryCodec, TruncationAtEveryByteOffsetNeedsMore) {
  std::mt19937 rng(55);
  std::vector<std::string> frames;
  frames.push_back(binary_predict_request(17, random_transfer(rng),
                                          random_load(rng), 2500));
  frames.push_back(
      encode_reply(packed_to(9), predicted(312.5, true, 3), 1009, 0.42));
  frames.push_back(
      encode_reply(packed_to(1), failed(kErrTimeout, "too slow"), 7, 9.0));
  frames.push_back(binary_json_frame("{\"cmd\":\"stats\"}"));
  for (const std::string& frame : frames) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const BinaryDecode decoded =
          decode_binary_frame(std::string_view(frame).substr(0, cut));
      EXPECT_EQ(decoded.status, BinaryDecode::Status::kNeedMore)
          << "frame of " << frame.size() << " cut at " << cut;
    }
    // And the full frame still decodes after all that.
    EXPECT_EQ(decode_binary_frame(frame).status,
              BinaryDecode::Status::kFrame);
  }
}

TEST(ServeBinaryCodec, TruncatedPayloadsThrowInsteadOfMisreading) {
  // parse_binary_reply on a cut-down payload must throw (structured
  // channel gone), never read past the end or fabricate fields.
  const std::string wire =
      encode_reply(packed_to(12), predicted(100.0, false, 2), 44, 1.0);
  const BinaryDecode decoded = decode_binary_frame(wire);
  ASSERT_EQ(decoded.status, BinaryDecode::Status::kFrame);
  for (std::size_t cut = 0; cut < decoded.payload.size(); ++cut)
    EXPECT_THROW(parse_binary_reply(BinaryType::kPredictOk,
                                    decoded.payload.substr(0, cut)),
                 std::exception)
        << "payload cut at " << cut;
  // Same for request payloads, which must yield kBad — not throw, the
  // server answers errors instead of dying.
  std::mt19937 rng(8);
  const std::string request = binary_predict_request(3, random_transfer(rng));
  const BinaryDecode request_decoded = decode_binary_frame(request);
  ASSERT_EQ(request_decoded.status, BinaryDecode::Status::kFrame);
  for (std::size_t cut = 0; cut < request_decoded.payload.size(); ++cut) {
    const Frame frame =
        parse_binary_predict(request_decoded.payload.substr(0, cut));
    EXPECT_EQ(frame.kind, Frame::Kind::kBad) << "payload cut at " << cut;
  }
}

TEST(ServeBinaryCodec, RandomGarbageNeverMisbehaves) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 600);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage;
    const std::size_t length = size(rng);
    garbage.reserve(length);
    for (std::size_t i = 0; i < length; ++i)
      garbage.push_back(static_cast<char>(byte(rng)));
    const BinaryDecode decoded = decode_binary_frame(garbage);
    if (decoded.status == BinaryDecode::Status::kFrame) {
      EXPECT_LE(decoded.consumed, garbage.size());
      // A lucky valid frame must still parse without UB; outcome is
      // whatever it is (kBad or a throw are both structured).
      if (decoded.type == BinaryType::kPredict) {
        const Frame frame = parse_binary_predict(decoded.payload);
        (void)frame;
      } else if (decoded.type != BinaryType::kJson) {
        try {
          (void)parse_binary_reply(decoded.type, decoded.payload);
        } catch (const std::exception&) {
        }
      }
    }
  }
}

// ----------------------------------------------------------- end to end

std::shared_ptr<const core::TransferPredictor> shared_predictor() {
  static const auto predictor = [] {
    sim::EsnetConfig config;
    config.transfers = 400;
    config.duration_s = 86400.0;
    config.seed = 31;
    const auto log = sim::make_esnet_testbed(config).run().log;
    core::TransferPredictor::Options options;
    options.min_edge_transfers = 50;
    options.gbt.trees = 10;
    auto fitted = std::make_shared<core::TransferPredictor>(options);
    fitted->fit(log);
    return std::shared_ptr<const core::TransferPredictor>(fitted);
  }();
  return predictor;
}

TEST(ServeBinaryE2E, JsonAndBinaryClientsGetBitIdenticalPredictions) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient json_client("127.0.0.1", server.port());
  PredictionClient binary_client("127.0.0.1", server.port());
  binary_client.negotiate_binary();
  ASSERT_TRUE(binary_client.binary());

  std::mt19937 rng(77);
  for (int i = 0; i < 40; ++i) {
    core::PlannedTransfer planned = random_transfer(rng);
    planned.src = i % 2 == 0 ? 0 : 2;  // Stay on fitted endpoints.
    planned.dst = i % 3 == 0 ? 1 : 3;
    const auto load = i % 2 == 0 ? features::ContentionFeatures{}
                                 : random_load(rng);
    const auto json_reply = json_client.predict(planned, load);
    const auto binary_reply = binary_client.predict(planned, load);
    ASSERT_TRUE(json_reply.ok) << json_reply.message;
    ASSERT_TRUE(binary_reply.ok) << binary_reply.message;
    // The whole point of %.17g + raw IEEE bits: one server, one answer.
    EXPECT_EQ(json_reply.rate_mbps, binary_reply.rate_mbps) << "row " << i;
    EXPECT_EQ(json_reply.model, binary_reply.model);
    EXPECT_EQ(json_reply.model_version, binary_reply.model_version);
  }
  server.stop();
}

TEST(ServeBinaryE2E, AdminAndFeedbackRideKJsonFramesAfterNegotiation) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient client("127.0.0.1", server.port());
  client.negotiate_binary();
  EXPECT_TRUE(client.ping());

  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 25.0 * kGB;
  planned.files = 10;
  const auto reply = client.predict(planned);
  ASSERT_TRUE(reply.ok);
  ASSERT_FALSE(reply.trace_id.empty());

  // Feedback joins on the trace id the packed reply carried.
  const auto feedback = client.feedback(reply.trace_id, reply.rate_mbps);
  EXPECT_TRUE(feedback.ok);
  EXPECT_TRUE(feedback.matched);

  const auto stats = client.stats();
  const auto* requests = stats.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number, 1.0);
  const auto* shards = stats.find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_GE(shards->number, 1.0);
  server.stop();
}

TEST(ServeBinaryE2E, JsonPredictInKJsonFrameIsAnsweredInKJsonFrame) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient client("127.0.0.1", server.port());
  client.negotiate_binary();
  std::mt19937 rng(5);
  core::PlannedTransfer planned = random_transfer(rng);
  planned.src = 0;
  planned.dst = 1;
  const features::ContentionFeatures load = random_load(rng);

  // A JSON request on a binary-framed connection keeps its JSON reply
  // shape, wrapped in a kJson frame; the rate is the packed reply's.
  client.send_raw(
      binary_json_frame(predict_request_line("wrapped", planned, load)));
  const auto [type, payload] = client.read_frame();
  ASSERT_EQ(type, BinaryType::kJson);
  const PredictReply wrapped = PredictionClient::parse_reply(payload);
  ASSERT_TRUE(wrapped.ok) << wrapped.message;
  EXPECT_EQ(wrapped.id, "wrapped");
  EXPECT_FALSE(wrapped.trace_id.empty());

  const PredictReply packed = client.predict(planned, load);
  ASSERT_TRUE(packed.ok) << packed.message;
  EXPECT_EQ(wrapped.rate_mbps, packed.rate_mbps);  // Bit-identical.
  EXPECT_EQ(wrapped.model, packed.model);
  EXPECT_EQ(wrapped.model_version, packed.model_version);

  // A malformed JSON request is answered the same way.
  client.send_raw(binary_json_frame(R"({"id":"broken","src":0})"));
  const auto [error_type, error_payload] = client.read_frame();
  ASSERT_EQ(error_type, BinaryType::kJson);
  const PredictReply error = PredictionClient::parse_reply(error_payload);
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.id, "broken");
  EXPECT_EQ(error.error, kErrBadRequest);
  server.stop();
}

TEST(ServeBinaryE2E, MagicMidStreamUpgradesAtFrameBoundaryOnly) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {});
  server.start();

  PredictionClient client("127.0.0.1", server.port());
  // JSON round trip first, then upgrade, then a packed round trip: the
  // same connection serves both framings in sequence.
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 4.0 * kGB;
  planned.files = 2;
  const auto before = client.predict(planned);
  ASSERT_TRUE(before.ok);
  client.negotiate_binary();
  const auto after = client.predict(planned);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(before.rate_mbps, after.rate_mbps);
  server.stop();
}

}  // namespace
}  // namespace xfl::serve
