// Long-running prediction daemon over POSIX TCP sockets, built as an
// epoll readiness loop: one poll thread drives every non-blocking socket
// (accept, reads, write flushes, partial-frame timeouts), so ten
// thousand mostly-idle connections cost ten thousand fds and zero
// threads — not ten thousand blocked readers. Parsed predict requests
// flow into the sharded MicroBatcher (each connection is pinned to one
// shard; workers steal only on imbalance) and every reply is appended to
// a per-connection write buffer, whatever thread wrote it; partial reads
// and short writes are first-class connection states, never blocked
// threads. Connections speak line-delimited JSON by default and may
// negotiate the length-prefixed binary framing (see protocol.hpp).
//
// Lifecycle: start() binds/listens (port 0 = kernel-assigned, reported
// by port()); stop() is a graceful drain — stop accepting, answer
// everything already admitted to the batcher, reject late arrivals with
// "shutting_down", flush every pending write buffer (for at most 5 s),
// then close connections. The destructor stops too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/model_host.hpp"
#include "serve/monitor.hpp"
#include "serve/protocol.hpp"

namespace xfl::serve {

class PredictionServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port.
    std::string bind_address = "127.0.0.1";
    std::size_t max_batch = 64;
    std::size_t queue_capacity = 1024;  ///< Per batcher shard.
    /// Batcher shards (one owned queue + worker each); 0 = auto
    /// (hardware_concurrency clamped to [1, 4]).
    std::size_t shards = 0;
    /// A connection whose partially-received frame stalls longer than
    /// this is answered with a structured "frame_timeout" error and
    /// closed. 0 disables. Completely idle connections (no buffered
    /// partial frame) are never timed out — idling is free by design.
    std::uint64_t partial_frame_timeout_ms = 30000;
    /// Drift-monitor tuning (journal size, window, alarm threshold).
    ServeMonitor::Options monitor;
  };

  // Two overloads instead of one defaulted parameter: a nested aggregate
  // with member initializers cannot appear as a default argument inside
  // its own enclosing class.
  explicit PredictionServer(ModelHost& host);
  PredictionServer(ModelHost& host, Options options);
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Bind, listen, and start the poll loop. Throws std::runtime_error on
  /// socket failures (port in use, bad bind address).
  void start();

  /// Graceful drain; see file header. Idempotent, safe to call from any
  /// thread except a connection callback.
  void stop();

  /// The bound port (after start(); resolves ephemeral port 0).
  std::uint16_t port() const { return port_; }

  ModelHost& host() { return host_; }
  /// Exposed for ops levers and tests (pause/resume, queue_depth).
  MicroBatcher& batcher() { return batcher_; }
  /// The online accuracy/drift monitor fed by feedback frames.
  ServeMonitor& monitor() { return monitor_; }

  /// Currently open connections (the soak test's scale probe).
  std::size_t connection_count() const {
    return conn_count_.load(std::memory_order_relaxed);
  }

  /// Invoked on the poll thread after every MATCHED feedback join, with
  /// the join result (which carries the captured transfer + load), the
  /// trace id, and the observed rate — the hook the retrain subsystem
  /// journals training records through. Install before start(); keep it
  /// cheap (one buffered journal append), it runs on the event loop.
  using FeedbackHook =
      std::function<void(const ServeMonitor::FeedbackResult& result,
                         std::uint64_t trace_id, double observed_mbps)>;
  void set_feedback_hook(FeedbackHook hook) {
    feedback_hook_ = std::move(hook);
  }

  /// Supplies the JSON object spliced into `retrain-status` admin
  /// replies (the retrain worker's status_json()). Install before
  /// start(); unset means the command reports {"enabled":false}.
  void set_retrain_status_provider(std::function<std::string()> provider) {
    retrain_status_ = std::move(provider);
  }

 private:
  struct Connection;
  struct Cork;

  /// Worker-thread write corking, installed as every batcher's
  /// MicroBatcher::Options::batch_hook: between cork_begin() and
  /// cork_end(), queue_output on that thread appends to the connection's
  /// buffer and registers the connection; cork_end() flushes each one
  /// once, so a batch costs one send burst per connection.
  static Cork& cork_state();
  void cork_begin();
  void cork_end();

  void poll_loop();
  void wake();
  void handle_accepts();
  /// accept4 ran out of fds or memory: count it, warn (at most every
  /// 10 s), and disarm the listener until the next loop tick.
  void pause_accepts(int error);
  void handle_readable(const std::shared_ptr<Connection>& conn);
  void handle_writable(const std::shared_ptr<Connection>& conn);
  void process_input(const std::shared_ptr<Connection>& conn);
  /// One decoded predict request parked until the end of the readiness
  /// round, so a pipelined connection's frames are admitted in one
  /// submit_burst instead of one lock round trip each.
  struct PendingPredict;
  void handle_frame(const std::shared_ptr<Connection>& conn, Frame& frame,
                    std::uint64_t received_ns,
                    std::vector<PendingPredict>& burst);
  void flush_predict_burst(const std::shared_ptr<Connection>& conn,
                           std::vector<PendingPredict>& burst);
  void handle_admin(const std::shared_ptr<Connection>& conn,
                    const ReplyTo& reply, const AdminRequest& admin);
  void handle_feedback(const std::shared_ptr<Connection>& conn,
                       const ReplyTo& reply, const FeedbackRequest& feedback);
  /// Queue one JSON reply line, wrapped in a kJson binary frame when
  /// `reply.wrap` (the framing frozen at admission) says so.
  void send_response(const std::shared_ptr<Connection>& conn,
                     const ReplyTo& reply, std::string json_line);
  /// Append bytes to the connection's write buffer (dooming a connection
  /// whose buffer passes the 8 MB cap). A buffer that was empty is then
  /// flushed: at batch end inside a cork, else now; EPOLLOUT sends what
  /// the socket would not take. Any thread.
  void queue_output(const std::shared_ptr<Connection>& conn,
                    std::string_view bytes);
  /// Structured error + stop reading; the connection closes once the
  /// error has been flushed.
  void fail_connection(const std::shared_ptr<Connection>& conn,
                       const char* code, const std::string& message);
  void maybe_close(const std::shared_ptr<Connection>& conn);
  void close_connection(const std::shared_ptr<Connection>& conn);
  void sweep_partial_frame_timeouts(std::uint64_t now_us);
  void update_epoll_interest(Connection& conn);
  void drain_pending_attention();
  void request_attention(const std::shared_ptr<Connection>& conn);
  void join_admin_threads();

  ModelHost& host_;
  Options options_;
  MicroBatcher batcher_;
  ServeMonitor monitor_;
  /// Both set before start() (no synchronisation of their own).
  FeedbackHook feedback_hook_;
  std::function<std::string()> retrain_status_;
  /// Trace ids are per-server-instance, dense from 1; id 0 is reserved
  /// so "t0" can never match a journalled prediction.
  std::atomic<std::uint64_t> next_trace_{1};

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd the workers poke to re-arm writes.
  std::uint16_t port_ = 0;
  /// obs::monotonic_us() at start(); stats derives uptime_seconds from it.
  std::uint64_t start_us_ = 0;
  /// Poll-thread-only: when a listener paused by pause_accepts is re-armed
  /// (0 = armed), and when the last accept-failure warning was logged.
  std::uint64_t accept_resume_us_ = 0;
  std::uint64_t accept_warned_us_ = 0;
  std::thread poll_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> flush_and_exit_{false};
  std::atomic<std::size_t> conn_count_{0};
  std::atomic<std::size_t> next_shard_{0};

  std::mutex state_mutex_;  ///< start/stop lifecycle flags.
  bool started_ = false;
  bool stopped_ = false;

  /// Poll-thread-only: fd -> connection. Callbacks never touch it; they
  /// go through the attention queue below.
  std::vector<std::shared_ptr<Connection>> conns_;

  /// Connections a worker thread wants the poll thread to look at (arm
  /// EPOLLOUT, or re-check close eligibility). MPSC, drained on wake.
  std::mutex attention_mutex_;
  std::vector<std::shared_ptr<Connection>> attention_;

  /// Admin reload runs on its own short-lived thread so a multi-second
  /// model parse never stalls the event loop; joined at stop().
  std::mutex admin_mutex_;
  std::vector<std::thread> admin_threads_;
};

}  // namespace xfl::serve
