// Fault injection against the event-driven serve core, driven by a raw
// misbehaving TCP client that the PredictionClient would never be:
// bytes trickled one at a time, frames split across arbitrary write
// boundaries, stalls mid-frame, oversized frames, garbage lines, binary
// noise on a JSON connection, bad binary framing, and half-closed
// sockets. The server's contract for every case: a structured error (or
// a correct answer) and a connection that dies cleanly — never a wedged
// worker, never a crash, never an unbounded buffer. Tier2-serve: run
// under -DXFL_SANITIZE=thread like the other concurrency suites.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/model_host.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace xfl::serve {
namespace {

std::shared_ptr<const core::TransferPredictor> shared_predictor() {
  static const auto predictor = [] {
    sim::EsnetConfig config;
    config.transfers = 400;
    config.duration_s = 86400.0;
    config.seed = 23;
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

struct RunningServer {
  explicit RunningServer(PredictionServer::Options options = {}) {
    host = std::make_unique<ModelHost>(shared_predictor());
    server = std::make_unique<PredictionServer>(*host, options);
    server->start();
  }
  std::unique_ptr<ModelHost> host;
  std::unique_ptr<PredictionServer> server;
};

/// A raw socket with none of PredictionClient's manners. A non-zero
/// `receive_buffer` shrinks SO_RCVBUF before connecting, so a client that
/// stops reading backs the server's replies up into its write buffer.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port, int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    if (receive_buffer > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                   sizeof receive_buffer);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                        sizeof address),
              0);
    const int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    // Every read is bounded: a wedged server turns into a test failure,
    // not a hung suite.
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void send_all(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // Peer reset mid-fault is a valid outcome.
      sent += static_cast<std::size_t>(n);
    }
  }

  void send_byte_at_a_time(std::string_view bytes) {
    for (const char c : bytes) send_all({&c, 1});
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Read one newline-terminated line; empty string on EOF/timeout.
  std::string read_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Read exactly n bytes; shorter result means EOF/timeout.
  std::string read_exact(std::size_t n) {
    while (buffer_.size() < n) {
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) break;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
    const std::size_t take = std::min(n, buffer_.size());
    std::string out = buffer_.substr(0, take);
    buffer_.erase(0, take);
    return out;
  }

  /// True when the server has closed its end (EOF within the timeout).
  bool reads_eof() {
    for (;;) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n == 0) return true;
      if (n < 0) return false;  // Timeout: connection still open.
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

constexpr const char* kPredictLine =
    "{\"id\":\"1\",\"src\":0,\"dst\":1,\"bytes\":5e10,\"files\":8}\n";

/// The canary: whatever a fault test did, the server must still answer a
/// well-behaved client afterwards.
void expect_server_alive(PredictionServer& server) {
  PredictionClient canary("127.0.0.1", server.port());
  EXPECT_TRUE(canary.ping());
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 10.0 * kGB;
  planned.files = 4;
  const auto reply = canary.predict(planned);
  EXPECT_TRUE(reply.ok);
  EXPECT_GT(reply.rate_mbps, 0.0);
}

// ------------------------------------------------------------ slow senders

TEST(ServeFaults, ByteAtATimeRequestIsAnswered) {
  RunningServer running;
  RawClient client(running.server->port());
  client.send_byte_at_a_time(kPredictLine);
  const std::string line = client.read_line();
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"id\":\"1\""), std::string::npos) << line;
  expect_server_alive(*running.server);
}

TEST(ServeFaults, BinaryFrameSplitAcrossEveryWriteBoundary) {
  RunningServer running;
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 2.0 * kGB;
  planned.files = 3;
  const std::string frame = binary_predict_request(7, planned);
  // Split the magic + frame at every boundary, one connection per split,
  // so partial-header and partial-payload states are all exercised.
  std::string wire(kBinaryMagic);
  wire += frame;
  for (std::size_t split = 1; split + 1 < wire.size(); split += 3) {
    RawClient client(running.server->port());
    client.send_all(std::string_view(wire).substr(0, split));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    client.send_all(std::string_view(wire).substr(split));
    const std::string ack = client.read_exact(kBinaryMagic.size());
    ASSERT_EQ(ack, kBinaryMagic) << "split at " << split;
    // One reply frame: u32 length, u8 type, payload.
    const std::string header = client.read_exact(5);
    ASSERT_EQ(header.size(), 5u) << "split at " << split;
    std::uint32_t length = 0;
    std::memcpy(&length, header.data(), 4);
    ASSERT_GE(length, 1u);
    const std::string payload = client.read_exact(length - 1);
    const auto reply = parse_binary_reply(
        static_cast<BinaryType>(static_cast<unsigned char>(header[4])),
        payload);
    EXPECT_TRUE(reply.ok) << "split at " << split;
    EXPECT_EQ(reply.id, 7u);
    EXPECT_GT(reply.rate_mbps, 0.0);
  }
  expect_server_alive(*running.server);
}

// -------------------------------------------------------------- stalls

TEST(ServeFaults, StallMidJsonFrameGetsStructuredTimeout) {
  RunningServer running({.partial_frame_timeout_ms = 150, .monitor = {}});
  RawClient client(running.server->port());
  client.send_all("{\"id\":\"9\",\"src\":0,");  // ... and never finishes.
  const std::string line = client.read_line();
  EXPECT_NE(line.find(kErrFrameTimeout), std::string::npos) << line;
  EXPECT_TRUE(client.reads_eof());
  expect_server_alive(*running.server);
}

TEST(ServeFaults, StallMidBinaryFrameGetsStructuredTimeout) {
  RunningServer running({.partial_frame_timeout_ms = 150, .monitor = {}});
  RawClient client(running.server->port());
  client.send_all(kBinaryMagic);
  ASSERT_EQ(client.read_exact(kBinaryMagic.size()), kBinaryMagic);
  client.send_all(std::string("\x40\x00\x00\x00\x01", 5));  // 64-byte frame...
  client.send_all("only a few bytes of it");                // ...never arrives.
  const std::string header = client.read_exact(5);
  ASSERT_EQ(header.size(), 5u);
  std::uint32_t length = 0;
  std::memcpy(&length, header.data(), 4);
  const auto reply = parse_binary_reply(
      static_cast<BinaryType>(static_cast<unsigned char>(header[4])),
      client.read_exact(length - 1));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, kErrFrameTimeout);
  EXPECT_TRUE(client.reads_eof());
  expect_server_alive(*running.server);
}

TEST(ServeFaults, IdleConnectionIsNeverTimedOut) {
  RunningServer running({.partial_frame_timeout_ms = 150, .monitor = {}});
  RawClient idle(running.server->port());
  // An idle connection holds no partial frame; a second of silence (many
  // sweep periods past the 150ms budget) must not evict it.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  idle.send_all(kPredictLine);
  const std::string line = idle.read_line();
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
}

// ---------------------------------------------------------- bad framing

TEST(ServeFaults, OversizedJsonFrameIsRejectedAndClosed) {
  RunningServer running;
  RawClient client(running.server->port());
  const std::string huge(kMaxFrameBytes + 64, 'x');  // No newline anywhere.
  client.send_all(huge);
  const std::string line = client.read_line();
  EXPECT_NE(line.find(kErrBadRequest), std::string::npos) << line;
  EXPECT_TRUE(client.reads_eof());
  expect_server_alive(*running.server);
}

TEST(ServeFaults, GarbageLineGetsErrorAndConnectionSurvives) {
  RunningServer running;
  RawClient client(running.server->port());
  client.send_all("this is not json\n");
  std::string line = client.read_line();
  EXPECT_NE(line.find(kErrBadRequest), std::string::npos) << line;
  // Newline framing resyncs: the same connection still serves.
  client.send_all(kPredictLine);
  line = client.read_line();
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
}

TEST(ServeFaults, BinaryNoiseOnJsonConnectionIsContained) {
  RunningServer running({.partial_frame_timeout_ms = 150, .monitor = {}});
  RawClient client(running.server->port());
  // A binary frame the peer never negotiated for: not the magic, not
  // JSON. Depending on whether the noise happens to contain a newline
  // the server answers bad_request or frame_timeout — either way it is
  // a structured error followed by close or resync, never a wedge.
  std::string noise("\x20\x00\x00\x00\x01", 5);
  noise += std::string(32, '\x7f');
  client.send_all(noise);
  const std::string line = client.read_line();
  const bool structured =
      line.find(kErrBadRequest) != std::string::npos ||
      line.find(kErrFrameTimeout) != std::string::npos;
  EXPECT_TRUE(structured) << line;
  expect_server_alive(*running.server);
}

TEST(ServeFaults, OversizedBinaryFrameIsRejectedAndClosed) {
  RunningServer running;
  RawClient client(running.server->port());
  client.send_all(kBinaryMagic);
  ASSERT_EQ(client.read_exact(kBinaryMagic.size()), kBinaryMagic);
  // Length field far past kMaxFrameBytes: framing cannot recover.
  client.send_all(std::string("\xff\xff\xff\x7f\x01", 5));
  const std::string header = client.read_exact(5);
  ASSERT_EQ(header.size(), 5u);
  std::uint32_t length = 0;
  std::memcpy(&length, header.data(), 4);
  const auto reply = parse_binary_reply(
      static_cast<BinaryType>(static_cast<unsigned char>(header[4])),
      client.read_exact(length - 1));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, kErrBadRequest);
  EXPECT_TRUE(client.reads_eof());
  expect_server_alive(*running.server);
}

TEST(ServeFaults, UnknownBinaryTypeIsRejectedAndClosed) {
  RunningServer running;
  RawClient client(running.server->port());
  client.send_all(kBinaryMagic);
  ASSERT_EQ(client.read_exact(kBinaryMagic.size()), kBinaryMagic);
  client.send_all(std::string("\x02\x00\x00\x00\x9b\x00", 6));
  const std::string header = client.read_exact(5);
  ASSERT_EQ(header.size(), 5u);
  std::uint32_t length = 0;
  std::memcpy(&length, header.data(), 4);
  const auto reply = parse_binary_reply(
      static_cast<BinaryType>(static_cast<unsigned char>(header[4])),
      client.read_exact(length - 1));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, kErrBadRequest);
  EXPECT_TRUE(client.reads_eof());
  expect_server_alive(*running.server);
}

// ----------------------------------------------------------- half-close

TEST(ServeFaults, HalfCloseStillReceivesEveryAnswer) {
  RunningServer running;
  RawClient client(running.server->port());
  constexpr int kPipelined = 5;
  for (int i = 0; i < kPipelined; ++i) {
    std::string line = "{\"id\":\"" + std::to_string(i) +
                       "\",\"src\":0,\"dst\":1,\"bytes\":1e10}\n";
    client.send_all(line);
  }
  client.half_close();  // Done asking; still reading.
  int answered = 0;
  for (int i = 0; i < kPipelined; ++i) {
    const std::string line = client.read_line();
    if (line.empty()) break;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    ++answered;
  }
  EXPECT_EQ(answered, kPipelined);
  // All answers flushed and the read side closed: the server must now
  // close its end rather than leak the connection.
  EXPECT_TRUE(client.reads_eof());
  expect_server_alive(*running.server);
}

TEST(ServeFaults, AbortiveCloseWithRequestsInFlightIsHarmless) {
  RunningServer running;
  for (int round = 0; round < 8; ++round) {
    RawClient client(running.server->port());
    client.send_all(kPredictLine);
    // Destructor closes the socket immediately: replies hit a dead peer.
  }
  expect_server_alive(*running.server);
}

// ---------------------------------------------------------- slow readers

constexpr const char* kStatsLinePrefix =
    "{\"cmd\":\"stats\",\"registry\":true,\"id\":\"s";

/// The reply's "id", or empty when the line is not an intact JSON object.
std::string reply_id(const std::string& line) {
  try {
    const JsonValue root = parse_json(line);
    const JsonValue* id = root.find("id");
    const JsonValue* ok = root.find("ok");
    if (id == nullptr || !id->is_string() || ok == nullptr ||
        !ok->is_bool() || !ok->boolean)
      return {};
    return id->string;
  } catch (const std::exception&) {
    return {};
  }
}

TEST(ServeFaults, SlowReaderGetsEveryReplyIntactAndInOrder) {
  // One shard: every predict of the connection is answered by one worker,
  // in admission order, so both routes have a defined reply order.
  RunningServer running({.shards = 1, .monitor = {}});
  RawClient client(running.server->port(), 4096);
  constexpr int kPredicts = 400;
  constexpr int kStatsEvery = 10;
  std::string wire;
  for (int i = 0; i < kPredicts; ++i) {
    wire += "{\"id\":\"p" + std::to_string(i) +
            "\",\"src\":0,\"dst\":1,\"bytes\":1e10}\n";
    if (i % kStatsEvery == 0)
      wire += kStatsLinePrefix + std::to_string(i / kStatsEvery) + "\"}\n";
  }
  client.send_all(wire);
  // Stop reading: stats replies (written by the poll thread) and predict
  // replies (written by the batch worker) back up behind the small
  // receive buffer, into the server's write buffer.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int next_predict = 0;
  int next_stats = 0;
  constexpr int kStats = (kPredicts + kStatsEvery - 1) / kStatsEvery;
  while (next_predict < kPredicts || next_stats < kStats) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty())
        << "stream ended after " << next_predict << " predicts and "
        << next_stats << " stats replies";
    const std::string id = reply_id(line);
    ASSERT_FALSE(id.empty()) << line.substr(0, 200);
    if (id[0] == 'p')
      ASSERT_EQ(id, "p" + std::to_string(next_predict++));
    else
      ASSERT_EQ(id, "s" + std::to_string(next_stats++));
  }
  expect_server_alive(*running.server);
}

TEST(ServeFaults, ReaderThatNeverReadsIsClosedAtTheOutputCap) {
  RunningServer running;
  const obs::Counter& overflow = obs::counter("serve.conn.output_overflow");
  const std::uint64_t before = overflow.value();
  const auto wait_for_connections = [&](std::size_t count) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (running.server->connection_count() != count &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return running.server->connection_count() == count;
  };
  {
    RawClient client(running.server->port(), 4096);
    ASSERT_TRUE(wait_for_connections(1));
    // Ask for registry-sized stats replies and never read one: the write
    // buffer passes its 8 MB cap and the server drops the connection.
    std::string batch;
    for (int i = 0; i < 64; ++i)
      batch += kStatsLinePrefix + std::to_string(i) + "\"}\n";
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (running.server->connection_count() != 0 &&
           std::chrono::steady_clock::now() < give_up) {
      client.send_all(batch);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(wait_for_connections(0));
    EXPECT_EQ(overflow.value(), before + 1);
  }
  expect_server_alive(*running.server);
  EXPECT_EQ(overflow.value(), before + 1);
}

}  // namespace
}  // namespace xfl::serve
