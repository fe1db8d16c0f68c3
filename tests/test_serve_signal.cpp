// Graceful-drain contract for SIGINT/SIGTERM (satellite of the serve
// telemetry PR): a server with requests already admitted to the batcher
// queue, on receiving SIGTERM, answers every one of them (each either a
// prediction or a structured shutting_down rejection — nothing vanishes),
// closes the listener, and exits 0.
//
// Signal disposition is process-global state; flipping it inside the
// gtest process would race other suites and the harness itself. So this
// suite forks and IMMEDIATELY execs the real `xferlearn serve` binary
// (path injected as XFL_XFERLEARN_BIN at configure time) — fork+exec with
// nothing between them is safe even from a multithreaded test runner.
// The same child also carries the fd-exhaustion contract: under a low
// RLIMIT_NOFILE (set between fork and exec) a server whose accepts fail
// with EMFILE pauses its listener instead of spinning on it.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/predictor.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "sim/scenario.hpp"

namespace xfl::serve {
namespace {

std::string saved_model_path() {
  static const std::string path = [] {
    sim::EsnetConfig config;
    config.transfers = 1200;
    config.duration_s = 2.0 * 86400.0;
    config.seed = 17;
    const auto log = sim::make_esnet_testbed(config).run().log;
    core::TransferPredictor::Options options;
    options.min_edge_transfers = 50;
    options.gbt.trees = 40;
    core::TransferPredictor predictor(options);
    predictor.fit(log);
    const std::string out = testing::TempDir() + "serve_signal_model.txt";
    predictor.save_file(out);
    return out;
  }();
  return path;
}

core::PlannedTransfer planned_transfer(int i) {
  core::PlannedTransfer planned;
  planned.src = static_cast<endpoint::EndpointId>(i % 2 == 0 ? 0 : 2);
  planned.dst = static_cast<endpoint::EndpointId>(i % 3 == 0 ? 1 : 3);
  planned.bytes = (1.0 + i % 12) * 5.0e9;
  planned.files = static_cast<std::uint64_t>(1 + (i % 12) * 3);
  planned.dirs = static_cast<std::uint64_t>(1 + i % 4);
  planned.concurrency = static_cast<std::uint32_t>(1 + i % 8);
  planned.parallelism = static_cast<std::uint32_t>(1 + (i * 5) % 8);
  return planned;
}

/// A `xferlearn serve` child process whose stdout we read through a pipe.
struct ServeProcess {
  pid_t pid = -1;
  std::FILE* out = nullptr;

  ~ServeProcess() {
    if (out != nullptr) std::fclose(out);
    if (pid > 0) {
      kill(pid, SIGKILL);
      int status = 0;
      waitpid(pid, &status, 0);
    }
  }

  /// `max_fds` > 0 lowers the child's RLIMIT_NOFILE before the exec.
  void spawn(const std::string& model_path, rlim_t max_fds = 0) {
    int fds[2];
    ASSERT_EQ(pipe(fds), 0) << std::strerror(errno);
    pid = fork();
    ASSERT_GE(pid, 0) << std::strerror(errno);
    if (pid == 0) {
      // Child: route stdout through the pipe, then exec immediately —
      // no allocation or locking between fork and exec.
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      if (max_fds > 0) {
        const rlimit limit{max_fds, max_fds};
        setrlimit(RLIMIT_NOFILE, &limit);
      }
      execl(XFL_XFERLEARN_BIN, "xferlearn", "serve", "--model",
            model_path.c_str(), "--port", "0", static_cast<char*>(nullptr));
      _exit(127);  // exec failed.
    }
    close(fds[1]);
    out = fdopen(fds[0], "r");
    ASSERT_NE(out, nullptr);
  }

  /// Blocks until the startup banner arrives and returns the bound port.
  std::uint16_t wait_for_port() {
    char line[512];
    while (std::fgets(line, sizeof line, out) != nullptr) {
      unsigned port = 0;
      if (std::sscanf(line, "serving predictions on %*[0-9.]:%u", &port) == 1)
        return static_cast<std::uint16_t>(port);
    }
    ADD_FAILURE() << "server banner never arrived";
    return 0;
  }

  /// Reaps the child and returns its exit status; -1 if it did not exit
  /// cleanly within ~10s.
  int wait_for_exit() {
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      const pid_t done = waitpid(pid, &status, WNOHANG);
      if (done == pid) {
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }
};

TEST(ServeSignal, SigtermDrainsAdmittedRequestsAndExitsZero) {
  ServeProcess child;
  child.spawn(saved_model_path());
  if (HasFatalFailure()) return;
  const std::uint16_t port = child.wait_for_port();
  ASSERT_NE(port, 0);

  PredictionClient client("127.0.0.1", port);
  ASSERT_TRUE(client.ping());

  // Pipeline a burst without reading replies, so a prefix is still
  // sitting in the batcher queue when the signal lands.
  constexpr int kRequests = 64;
  std::set<std::string> outstanding;
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = "sig-" + std::to_string(i);
    client.send_line(predict_request_line(id, planned_transfer(i)));
    outstanding.insert(id);
  }
  // Give the connection thread a moment to admit the burst, then signal.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(kill(child.pid, SIGTERM), 0) << std::strerror(errno);

  // Every admitted request must still be answered: a prediction, or a
  // structured shutting_down/overloaded rejection. Nothing may vanish.
  int answered_ok = 0;
  while (!outstanding.empty()) {
    std::string line;
    try {
      line = client.read_line();
    } catch (const std::exception&) {
      break;  // EOF after drain.
    }
    const auto reply = PredictionClient::parse_reply(line);
    ASSERT_EQ(outstanding.erase(reply.id), 1u)
        << "unexpected or duplicate reply id " << reply.id;
    if (reply.ok) {
      ++answered_ok;
      EXPECT_GT(reply.rate_mbps, 0.0);
      EXPECT_FALSE(reply.trace_id.empty());
    } else {
      EXPECT_TRUE(reply.error == "shutting_down" ||
                  reply.error == "overloaded")
          << reply.error;
    }
  }
  EXPECT_TRUE(outstanding.empty())
      << outstanding.size() << " requests were never answered";
  EXPECT_GT(answered_ok, 0) << "drain answered nothing successfully";

  EXPECT_EQ(child.wait_for_exit(), 0);
}

// The event-loop variant of the drain contract: idle connections parked
// on the epoll loop must not stall shutdown, and a binary-mode client
// with pipelined packed requests is drained exactly like a JSON one.
TEST(ServeSignal, SigtermDrainsBinaryClientWithIdleConnectionsParked) {
  ServeProcess child;
  child.spawn(saved_model_path());
  if (HasFatalFailure()) return;
  const std::uint16_t port = child.wait_for_port();
  ASSERT_NE(port, 0);

  // Park idle connections the poll loop must close on its own at exit.
  std::vector<std::unique_ptr<PredictionClient>> idle;
  for (int i = 0; i < 32; ++i)
    idle.push_back(std::make_unique<PredictionClient>("127.0.0.1", port));

  PredictionClient client("127.0.0.1", port);
  client.negotiate_binary();
  ASSERT_TRUE(client.binary());
  ASSERT_TRUE(client.ping());  // kJson frame round trip.

  constexpr int kRequests = 48;
  std::set<std::uint64_t> outstanding;
  for (int i = 0; i < kRequests; ++i) {
    const auto id = static_cast<std::uint64_t>(1000 + i);
    client.send_raw(binary_predict_request(id, planned_transfer(i)));
    outstanding.insert(id);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(kill(child.pid, SIGTERM), 0) << std::strerror(errno);

  int answered_ok = 0;
  while (!outstanding.empty()) {
    BinaryType type;
    std::string payload;
    try {
      std::tie(type, payload) = client.read_frame();
    } catch (const std::exception&) {
      break;  // EOF after drain.
    }
    if (type == BinaryType::kJson) continue;
    const BinaryPredictReply reply = parse_binary_reply(type, payload);
    ASSERT_EQ(outstanding.erase(reply.id), 1u)
        << "unexpected or duplicate packed reply id " << reply.id;
    if (reply.ok) {
      ++answered_ok;
      EXPECT_GT(reply.rate_mbps, 0.0);
      EXPECT_NE(reply.trace_id, 0u);
    } else {
      EXPECT_TRUE(reply.error == "shutting_down" ||
                  reply.error == "overloaded")
          << reply.error;
    }
  }
  EXPECT_TRUE(outstanding.empty())
      << outstanding.size() << " packed requests were never answered";
  EXPECT_GT(answered_ok, 0) << "drain answered nothing successfully";

  EXPECT_EQ(child.wait_for_exit(), 0);
}

// Handlers are installed before the banner is printed, so a signal that
// lands the instant the banner appears must still drain cleanly — the
// startup-race regression test for the poll-thread handoff.
TEST(ServeSignal, SigtermImmediatelyAfterBannerExitsZero) {
  ServeProcess child;
  child.spawn(saved_model_path());
  if (HasFatalFailure()) return;
  const std::uint16_t port = child.wait_for_port();
  ASSERT_NE(port, 0);
  ASSERT_EQ(kill(child.pid, SIGTERM), 0) << std::strerror(errno);
  EXPECT_EQ(child.wait_for_exit(), 0);
}

/// User + system CPU seconds `pid` has used (/proc/<pid>/stat fields 14
/// and 15; field 2 may hold spaces, so count from its closing paren).
double process_cpu_seconds(pid_t pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  const std::string stat{std::istreambuf_iterator<char>(file), {}};
  std::istringstream fields(stat.substr(stat.rfind(')') + 1));
  std::string field;
  unsigned long long ticks = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index)
    if (index >= 14) ticks += std::stoull(field);
  return static_cast<double>(ticks) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// More clients than the server has descriptors for: accept4 fails with
// EMFILE while the rest wait in the backlog, and the level-triggered
// listener stays readable. The server must sleep through that, not spin
// on it, and take new connections again once the clients close.
TEST(ServeSignal, FdExhaustionPausesAcceptsInsteadOfSpinning) {
  constexpr rlim_t kMaxFds = 32;
  ServeProcess child;
  child.spawn(saved_model_path(), kMaxFds);
  if (HasFatalFailure()) return;
  const std::uint16_t port = child.wait_for_port();
  ASSERT_NE(port, 0);

  std::vector<std::unique_ptr<PredictionClient>> clients;
  for (rlim_t i = 0; i < 2 * kMaxFds; ++i)
    clients.push_back(std::make_unique<PredictionClient>("127.0.0.1", port));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_before = process_cpu_seconds(child.pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu_spent = process_cpu_seconds(child.pid) - cpu_before;
  EXPECT_LT(cpu_spent, 0.1)
      << "server spun on a listener it had no descriptors to accept from";

  clients.clear();
  auto pong = std::async(std::launch::async, [port] {
    try {
      PredictionClient client("127.0.0.1", port);
      return client.ping();
    } catch (const std::exception&) {
      return false;
    }
  });
  if (pong.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    kill(child.pid, SIGKILL);  // Unblocks the waiting ping.
    FAIL() << "no ping reply after the clients closed";
  }
  EXPECT_TRUE(pong.get());
  ASSERT_EQ(kill(child.pid, SIGTERM), 0) << std::strerror(errno);
  EXPECT_EQ(child.wait_for_exit(), 0);
}

TEST(ServeSignal, SigintAlsoStopsTheServerCleanly) {
  ServeProcess child;
  child.spawn(saved_model_path());
  if (HasFatalFailure()) return;
  const std::uint16_t port = child.wait_for_port();
  ASSERT_NE(port, 0);

  {
    PredictionClient client("127.0.0.1", port);
    const auto reply = client.predict(planned_transfer(0));
    ASSERT_TRUE(reply.ok);
  }
  ASSERT_EQ(kill(child.pid, SIGINT), 0) << std::strerror(errno);
  EXPECT_EQ(child.wait_for_exit(), 0);
}

}  // namespace
}  // namespace xfl::serve
