// Soak and scale proof for the event-driven serve core: a thousand idle
// connections must cost zero threads and zero lost replies, while a
// saturating client pack hammers the hot path and a final pipelined
// drain shows stop() answers everything it admitted. This is the test
// the epoll rewrite exists to pass — the thread-per-connection design
// would sit at 1000+ threads here.
//
// Tagged tier2-serve-soak: part of the serve suite but greppable on its
// own (ctest -L soak). Sizes shrink under sanitizers, whose shadow
// memory and interceptors make 1k sockets needlessly slow.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
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

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr std::size_t kIdleConnections = kSanitized ? 200 : 1000;
constexpr std::size_t kSaturatingClients = kSanitized ? 16 : 64;
constexpr double kSaturateSeconds = kSanitized ? 1.0 : 2.0;

std::shared_ptr<const core::TransferPredictor> shared_predictor() {
  static const auto predictor = [] {
    sim::EsnetConfig config;
    config.transfers = 400;
    config.duration_s = 86400.0;
    config.seed = 29;
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

/// Threads of this process, from /proc/self/status. The scale probe: an
/// event-driven server must not grow this with connection count.
int process_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0)
      return std::stoi(line.substr(sizeof("Threads:") - 1));
  return -1;
}

/// The thread count once it has held still for 100 ms (bounded at 5 s).
/// Workers an earlier phase joined — the fixture's fit pool — can still
/// be counted for a moment after the join returns, so a single early
/// reading may include threads that are already on their way out.
int settled_thread_count() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int count = process_thread_count();
  for (int unchanged = 0;
       unchanged < 5 && std::chrono::steady_clock::now() < deadline;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = process_thread_count();
    unchanged = now == count ? unchanged + 1 : 0;
    count = now;
  }
  return count;
}

core::PlannedTransfer sample_transfer(std::size_t i) {
  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = (1.0 + static_cast<double>(i % 40)) * kGB;
  planned.files = 1 + i % 30;
  planned.concurrency = static_cast<std::uint32_t>(1 + i % 8);
  planned.parallelism = static_cast<std::uint32_t>(1 + (i * 3) % 8);
  return planned;
}

TEST(ServeSoak, ThousandIdleConnectionsCostNoThreadsAndNoReplies) {
  ModelHost host(shared_predictor());
  PredictionServer server(host, {.max_batch = 64,
                                 .queue_capacity = 1024,
                                 .monitor = {}});
  server.start();
  const int threads_after_start = settled_thread_count();
  ASSERT_GT(threads_after_start, 0);

  // Phase 1: park a thousand idle connections on the event loop.
  std::vector<std::unique_ptr<PredictionClient>> idle;
  idle.reserve(kIdleConnections);
  for (std::size_t i = 0; i < kIdleConnections; ++i)
    idle.push_back(
        std::make_unique<PredictionClient>("127.0.0.1", server.port()));
  // The poll thread registers accepted fds asynchronously; connect()
  // returning only proves the kernel queued them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.connection_count() < kIdleConnections &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.connection_count(), kIdleConnections);

  // The headline assertion: a thousand open sockets, zero new threads.
  EXPECT_EQ(process_thread_count(), threads_after_start);

  // Phase 2: saturate alongside the idle herd. Every predict() below is
  // a blocking round trip, so "zero lost replies" holds by construction
  // if and only if no call throws and none comes back failed.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> saturators;
  saturators.reserve(kSaturatingClients);
  for (std::size_t c = 0; c < kSaturatingClients; ++c) {
    saturators.emplace_back([&, c] {
      try {
        PredictionClient client("127.0.0.1", server.port());
        if (c % 2 == 0) client.negotiate_binary();  // Mixed protocols.
        std::size_t i = c;
        while (!stop.load(std::memory_order_relaxed)) {
          const auto reply = client.predict(sample_transfer(i++));
          if (reply.ok)
            completed.fetch_add(1, std::memory_order_relaxed);
          else
            failed.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kSaturateSeconds));
  // Under saturation the server may run client threads + shard workers,
  // but never a thread per connection: the ceiling is the thread count
  // at start plus our own saturator threads.
  const int threads_under_load = process_thread_count();
  EXPECT_LE(threads_under_load,
            threads_after_start + static_cast<int>(kSaturatingClients))
      << "server grew threads with connection count";
  stop.store(true);
  for (auto& thread : saturators) thread.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(completed.load(), kSaturatingClients)  // Everyone made progress.
      << "saturating clients starved by the idle herd";

  // Phase 3: idle connections survived the storm — each one still works.
  for (std::size_t i = 0; i < kIdleConnections; i += 100) {
    const auto reply = idle[i]->predict(sample_transfer(i));
    EXPECT_TRUE(reply.ok);
  }

  // Phase 4: pipelined drain. Pause the batcher, pipeline requests so
  // they are all admitted and queued, then stop(): every admitted
  // request must be answered before the socket closes.
  server.batcher().pause();
  PredictionClient drain_client("127.0.0.1", server.port());
  constexpr int kPipelined = 8;
  for (int i = 0; i < kPipelined; ++i)
    drain_client.send_line(
        predict_request_line("drain-" + std::to_string(i),
                             sample_transfer(static_cast<std::size_t>(i))));
  while (server.batcher().queue_depth() < kPipelined)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread stopper([&] { server.stop(); });
  std::set<std::string> answered;
  for (int i = 0; i < kPipelined; ++i) {
    const auto reply = PredictionClient::parse_reply(drain_client.read_line());
    EXPECT_TRUE(reply.ok) << reply.error;
    answered.insert(reply.id);
  }
  stopper.join();
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kPipelined));
}

}  // namespace
}  // namespace xfl::serve
