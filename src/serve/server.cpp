#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xfl::serve {

namespace {

struct ServerMetrics {
  obs::Counter& accepted = obs::counter("serve.conn.accepted");
  obs::Counter& accept_errors = obs::counter("serve.accept.errors");
  obs::Gauge& active = obs::gauge("serve.conn.active");
  obs::Gauge& uptime = obs::gauge("serve.uptime_seconds");
  obs::Counter& frame_timeouts = obs::counter("serve.conn.frame_timeout");
  obs::Counter& output_overflows = obs::counter("serve.conn.output_overflow");
  obs::Counter& binary_upgrades = obs::counter("serve.conn.binary");
  obs::Counter& requests = obs::counter("serve.request.count");
  obs::Counter& admin = obs::counter("serve.request.admin");
  obs::Counter& feedback = obs::counter("serve.request.feedback");
  obs::Counter& attribution_errors =
      obs::counter("serve.feedback.attribution_errors");
  obs::Counter& bad = obs::counter("serve.request.bad");
  obs::Counter& overloaded = obs::counter("serve.request.overloaded");
  obs::Counter& shutting_down = obs::counter("serve.request.shutting_down");
  obs::Counter& ok = obs::counter("serve.response.ok");
  obs::Counter& errors = obs::counter("serve.response.error");
  // Stage timers with fine log-spaced buckets (quantiles are exported).
  obs::Histogram& parse = obs::histogram("serve.request.parse_us",
                                         obs::quantile_latency_bounds_us());
  obs::Histogram& server_time = obs::histogram(
      "serve.request.server_us", obs::quantile_latency_bounds_us());
};

ServerMetrics& server_metrics() {
  static ServerMetrics metrics;
  return metrics;
}

/// Stage quantile summary for the stats report, resolved by name so the
/// batcher's TU-local histograms are reachable too.
StageQuantiles stage_quantiles(const char* name) {
  const auto snap =
      obs::Registry::instance().histogram(name, {}).snapshot();
  StageQuantiles q;
  q.count = snap.count;
  q.p50 = snap.quantile(50.0);
  q.p95 = snap.quantile(95.0);
  q.p99 = snap.quantile(99.0);
  return q;
}

/// A write buffer past this limit means the peer stopped reading long
/// ago; treat it like a dead socket instead of buffering without bound
/// (counted in serve.conn.output_overflow).
constexpr std::size_t kMaxOutBufferBytes = 8u << 20;

/// Upper bound on flushing unread responses to slow clients during stop();
/// afterwards the remaining connections are closed anyway.
constexpr std::uint64_t kDrainFlushTimeoutUs = 5'000'000;

// Build provenance surfaced in the startup log so a log reader can tell
// which toolchain and flags produced the binary answering on this port.
#if defined(__clang__)
constexpr const char* kCompiler = "clang";
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc";
#else
constexpr const char* kCompiler = "unknown";
#endif

#ifndef XFL_BUILD_FLAGS
#define XFL_BUILD_FLAGS ""
#endif

/// Resolve Options::shards == 0 (auto) before the batcher is built.
PredictionServer::Options normalize(PredictionServer::Options options) {
  if (options.shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options.shards = std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
  }
  return options;
}

}  // namespace

/// One accepted socket and all of its state. Ownership rules keep the
/// hot path lock-free-ish and TSan-clean:
///   - Plain fields below `// poll-thread state` are touched only by the
///     poll thread (read buffer, framing mode, epoll interest).
///   - `out_mutex` guards the write side (out buffer, want_write,
///     closed, write_failed) because batch workers append responses.
///   - `read_closed` / `in_flight` are atomics: workers consult them to
///     decide whether the poll thread must re-check close eligibility.
/// The fd is closed only by the destructor, so a batcher callback still
/// holding a shared_ptr writes to a valid (if shut-down) descriptor —
/// never to a recycled one.
struct PredictionServer::Connection {
  Connection(int fd, std::size_t shard) : fd(fd), shard(shard) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  const std::size_t shard;  ///< Batcher shard this connection is pinned to.

  // poll-thread state
  std::string in;        ///< Bytes received, not yet framed.
  bool binary = false;   ///< Negotiated length-prefixed framing.
  bool dead = false;     ///< Removed from the fd table; ignore events.
  std::uint32_t interest = 0;            ///< Current epoll event mask.
  std::uint64_t partial_since_us = 0;    ///< First byte of a partial frame.

  // cross-thread state
  std::atomic<bool> read_closed{false};  ///< EOF seen or input abandoned.
  std::atomic<std::size_t> in_flight{0}; ///< Requests awaiting a response.
  std::mutex out_mutex;
  /// Bytes the socket has not taken yet. Non-empty means a flush is owed:
  /// either a batch worker's cork holds the connection or want_write is
  /// set and EPOLLOUT sends the rest.
  std::string out;
  bool want_write = false;    ///< EPOLLOUT wanted (out non-empty).
  bool closed = false;        ///< Logical close: drop further output.
  bool write_failed = false;  ///< Peer is gone; connection is doomed.

  /// The one write loop (caller holds out_mutex): send what the socket
  /// takes from `out`. A hard error dooms the connection and drops the
  /// buffer. Returns true when the poll thread must act: the peer is
  /// gone, or a remainder newly waits for EPOLLOUT.
  bool flush_out() {
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      write_failed = true;  // EPIPE, ECONNRESET, ...
      out.clear();
      return true;
    }
    out.erase(0, sent);
    if (out.empty() || want_write) return false;
    want_write = true;
    return true;
  }
};

/// Per-thread cork: a batch worker collects the connections it wrote to
/// during one batch and flushes each exactly once at batch end. Thread
/// local, so shards never contend; other threads (poll, reload) see an
/// inactive cork and flush as they write.
struct PredictionServer::Cork {
  bool active = false;
  std::vector<std::shared_ptr<Connection>> pending;
};

/// A decoded predict frame parked by handle_frame until the readiness
/// round's flush_predict_burst. The reply address lets the rejection path
/// answer without the Frame (which dies with the input buffer). The item
/// already holds one in_flight reference.
struct PredictionServer::PendingPredict {
  BatchItem item;
  ReplyTo reply;
};

PredictionServer::Cork& PredictionServer::cork_state() {
  static thread_local Cork cork;
  return cork;
}

PredictionServer::PredictionServer(ModelHost& host)
    : PredictionServer(host, Options()) {}

PredictionServer::PredictionServer(ModelHost& host, Options options)
    : host_(host),
      options_(normalize(std::move(options))),
      batcher_(host,
               MicroBatcher::Options{options_.max_batch,
                                     options_.queue_capacity,
                                     options_.shards,
                                     [this](bool begin) {
                                       if (begin)
                                         cork_begin();
                                       else
                                         cork_end();
                                     }}),
      monitor_(options_.monitor) {}

PredictionServer::~PredictionServer() { stop(); }

void PredictionServer::start() {
  {
    std::lock_guard lock(state_mutex_);
    XFL_EXPECTS(!started_);
    started_ = true;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0)
    throw std::runtime_error(std::string("PredictionServer: epoll_create1: ") +
                             std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error(std::string("PredictionServer: eventfd: ") +
                             std::strerror(errno));
  }

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("PredictionServer: socket: ") +
                             std::strerror(errno));
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &address.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("PredictionServer: bad bind address '" +
                             options_.bind_address + "'");
  }
  // Backlog sized for connection-storm tests (1k clients connecting at
  // once); the kernel clamps to somaxconn.
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(listen_fd_, 1024) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("PredictionServer: bind/listen on " +
                             options_.bind_address + ":" +
                             std::to_string(options_.port) + ": " + what);
  }
  socklen_t address_len = sizeof address;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                &address_len);
  port_ = ntohs(address.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  poll_thread_ = std::thread([this] { poll_loop(); });
  start_us_ = obs::monotonic_us();
  server_metrics().uptime.set(0.0);
  XFL_LOG(info) << "prediction server listening"
                << obs::kv("address", options_.bind_address)
                << obs::kv("port", port_)
                << obs::kv("max_batch", options_.max_batch)
                << obs::kv("queue_capacity", options_.queue_capacity)
                << obs::kv("shards", batcher_.shard_count())
                << obs::kv("kernel",
                           host_.snapshot().predictor->serving_kernel());
  XFL_LOG(info) << "prediction server build info"
                << obs::kv("compiler", kCompiler)
                << obs::kv("compiler_version", __VERSION__)
                << obs::kv("flags", XFL_BUILD_FLAGS)
#ifdef NDEBUG
                << obs::kv("assertions", "off")
#else
                << obs::kv("assertions", "on")
#endif
                << obs::kv("kernel",
                           host_.snapshot().predictor->serving_kernel());
}

void PredictionServer::stop() {
  {
    std::lock_guard lock(state_mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  // 1. Stop accepting: the poll thread closes the listen socket on the
  //    next iteration but keeps serving reads and flushing writes.
  stopping_.store(true);
  wake();

  // 2. Drain: everything already admitted gets a real answer (the poll
  //    loop flushes response bytes while this blocks); requests read
  //    after this point get a structured "shutting_down".
  batcher_.drain_and_stop();
  join_admin_threads();

  // 3. Flush: the poll loop pushes out every buffered response (bounded
  //    by kDrainFlushTimeoutUs), closes all connections, and exits.
  flush_and_exit_.store(true);
  wake();
  if (poll_thread_.joinable()) poll_thread_.join();

  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
  server_metrics().active.set(0.0);
  XFL_LOG(info) << "prediction server stopped" << obs::kv("port", port_);
}

void PredictionServer::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void PredictionServer::poll_loop() {
  std::vector<epoll_event> events(128);
  bool accepting = true;
  std::uint64_t flush_deadline_us = 0;
  std::uint64_t last_sweep_us = 0;
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone; nothing left to serve.
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      const int fd = ev.data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof drained);
        continue;
      }
      if (accepting && fd == listen_fd_) {
        handle_accepts();
        continue;
      }
      // Copy the shared_ptr: a handler may close and unregister the slot.
      const std::shared_ptr<Connection> conn =
          static_cast<std::size_t>(fd) < conns_.size() ? conns_[fd] : nullptr;
      if (!conn) continue;
      if (ev.events & EPOLLOUT) handle_writable(conn);
      if (!conn->dead && (ev.events & (EPOLLIN | EPOLLHUP | EPOLLERR)))
        handle_readable(conn);
    }
    drain_pending_attention();

    if (stopping_.load(std::memory_order_relaxed) && accepting) {
      accepting = false;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }

    const std::uint64_t now_us = obs::monotonic_us();
    if (accepting && accept_resume_us_ != 0 && now_us >= accept_resume_us_) {
      accept_resume_us_ = 0;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = listen_fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
    }
    // Sweeping walks the whole fd table; twice a second is plenty for a
    // multi-second timeout and keeps the walk off the hot path.
    if (now_us - last_sweep_us >= 500000) {
      last_sweep_us = now_us;
      sweep_partial_frame_timeouts(now_us);
    }

    if (flush_and_exit_.load(std::memory_order_relaxed)) {
      if (flush_deadline_us == 0)
        flush_deadline_us = now_us + kDrainFlushTimeoutUs;
      bool pending = false;
      for (const auto& conn : conns_) {
        if (!conn) continue;
        if (conn->in_flight.load(std::memory_order_relaxed) > 0) {
          pending = true;
          break;
        }
        std::lock_guard lock(conn->out_mutex);
        if (!conn->out.empty() && !conn->write_failed) {
          pending = true;
          break;
        }
      }
      if (!pending || now_us >= flush_deadline_us) break;
    }
  }
  for (std::size_t fd = 0; fd < conns_.size(); ++fd) {
    const std::shared_ptr<Connection> conn = conns_[fd];
    if (conn) close_connection(conn);
  }
}

void PredictionServer::handle_accepts() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM)
        pause_accepts(errno);
      return;  // EAGAIN: the backlog is empty.
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    // Round-robin shard pinning: a connection's requests all land on one
    // shard, so per-connection admission order stays deterministic.
    auto conn = std::make_shared<Connection>(
        fd, next_shard_.fetch_add(1, std::memory_order_relaxed) %
                batcher_.shard_count());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
      continue;  // Connection destructor closes the fd.
    conn->interest = EPOLLIN;
    if (static_cast<std::size_t>(fd) >= conns_.size())
      conns_.resize(static_cast<std::size_t>(fd) + 1);
    conns_[static_cast<std::size_t>(fd)] = std::move(conn);
    server_metrics().accepted.add(1);
    server_metrics().active.set(static_cast<double>(
        conn_count_.fetch_add(1, std::memory_order_relaxed) + 1));
  }
}

void PredictionServer::pause_accepts(int error) {
  auto& metrics = server_metrics();
  metrics.accept_errors.add(1);
  // The level-triggered listener stays readable while a connection we
  // cannot take waits in the backlog: disarm it so epoll_wait sleeps, and
  // let the poll loop re-arm it a tick later (it wakes every 100 ms).
  epoll_event ev{};
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
  const std::uint64_t now_us = obs::monotonic_us();
  accept_resume_us_ = now_us + 100000;
  if (accept_warned_us_ == 0 || now_us - accept_warned_us_ >= 10000000) {
    accept_warned_us_ = now_us;
    XFL_LOG(warn) << "accept failed; listener paused"
                  << obs::kv("what", std::strerror(error))
                  << obs::kv("accept_errors", metrics.accept_errors.value())
                  << obs::kv("connections",
                             conn_count_.load(std::memory_order_relaxed));
  }
}

void PredictionServer::handle_readable(
    const std::shared_ptr<Connection>& conn) {
  if (conn->dead || conn->read_closed.load(std::memory_order_relaxed)) return;
  char chunk[16384];
  bool eof = false;
  // Bounded rounds per readiness: a firehose client cannot starve its
  // neighbours — level-triggered epoll re-reports leftover bytes.
  for (int rounds = 0; rounds < 16; ++rounds) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      conn->in.append(chunk, static_cast<std::size_t>(n));
      if (conn->in.size() >= kMaxFrameBytes * 2) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(conn);  // ECONNRESET and friends.
    return;
  }
  process_input(conn);
  if (conn->dead) return;
  if (eof) {
    // Half-close: the client is done asking but may still be reading.
    // Answer everything in flight, flush, then close.
    conn->read_closed.store(true, std::memory_order_relaxed);
    conn->in.clear();
    conn->partial_since_us = 0;
    update_epoll_interest(*conn);
    maybe_close(conn);
  }
}

void PredictionServer::process_input(
    const std::shared_ptr<Connection>& conn) {
  auto& metrics = server_metrics();
  std::string& in = conn->in;
  // Frames are parsed in place: `done` counts the bytes already framed,
  // and the buffer drops them once, after the round, rather than once per
  // frame (a round of 16 reads can hold thousands of frames).
  std::size_t done = 0;
  // Every predict frame this readiness round decodes is parked here and
  // admitted with one submit_burst call at the end (or before any admin/
  // feedback/error frame, which must observe prior admissions). Each
  // parked item already holds an in_flight reference, so every exit path
  // below must flush — a dropped burst would wedge close forever.
  std::vector<PendingPredict> burst;
  while (!conn->dead && !conn->read_closed.load(std::memory_order_relaxed)) {
    const std::string_view rest = std::string_view(in).substr(done);
    Frame frame;
    std::uint64_t received_ns = 0;
    if (!conn->binary) {
      // Binary negotiation: the exact magic bytes at a frame boundary
      // (and nothing else — "XFLBIN1x" falls through to JSON parsing).
      if (!rest.empty() && rest[0] == kBinaryMagic[0]) {
        const std::size_t have = std::min(rest.size(), kBinaryMagic.size());
        if (kBinaryMagic.substr(0, have) == rest.substr(0, have)) {
          if (rest.size() < kBinaryMagic.size()) break;  // Partial magic.
          done += kBinaryMagic.size();
          conn->binary = true;
          metrics.binary_upgrades.add(1);
          queue_output(conn, kBinaryMagic);  // Ack: same 8 bytes back.
          continue;
        }
      }
      const std::size_t newline = rest.find('\n');
      if (newline == std::string_view::npos) {
        if (rest.size() > kMaxFrameBytes) {
          metrics.bad.add(1);
          flush_predict_burst(conn, burst);
          fail_connection(conn, kErrBadRequest,
                          "frame exceeds maximum length");
          return;
        }
        break;
      }
      std::string_view line = rest.substr(0, newline);
      done += newline + 1;
      if (line.ends_with('\r')) line.remove_suffix(1);
      if (line.empty()) continue;
      received_ns = obs::monotonic_ns();
      frame = parse_frame(line);
    } else {
      const BinaryDecode decoded = decode_binary_frame(rest);
      if (decoded.status == BinaryDecode::Status::kNeedMore) break;
      if (decoded.status == BinaryDecode::Status::kBad) {
        // Framing cannot resync after a bad length or type byte: one
        // structured error, then the connection is done.
        metrics.bad.add(1);
        flush_predict_burst(conn, burst);
        fail_connection(conn, kErrBadRequest, decoded.error);
        return;
      }
      received_ns = obs::monotonic_ns();
      switch (decoded.type) {
        case BinaryType::kPredict:
          frame = parse_binary_predict(decoded.payload);
          break;
        case BinaryType::kExplain:
          frame = parse_binary_explain(decoded.payload);
          break;
        case BinaryType::kJson:
          frame = parse_frame(decoded.payload);
          break;
        default:
          frame.kind = Frame::Kind::kBad;
          frame.error = "response-type frame sent by client";
          break;
      }
      done += decoded.consumed;
    }
    // Parse time in ns / 1000: a parse takes well under a microsecond.
    metrics.parse.record(
        static_cast<double>(obs::monotonic_ns() - received_ns) / 1000.0);
    handle_frame(conn, frame, received_ns, burst);
  }
  flush_predict_burst(conn, burst);
  if (conn->dead) return;
  in.erase(0, done);
  // Partial-frame clock: starts when an incomplete frame begins to sit
  // in the buffer, cleared the moment the buffer empties. A connection
  // with no buffered bytes is idle, and idling is free.
  if (in.empty())
    conn->partial_since_us = 0;
  else if (conn->partial_since_us == 0)
    conn->partial_since_us = obs::monotonic_us();
}

void PredictionServer::handle_frame(const std::shared_ptr<Connection>& conn,
                                    Frame& frame, std::uint64_t received_ns,
                                    std::vector<PendingPredict>& burst) {
  XFL_SPAN("serve.request");
  auto& metrics = server_metrics();
  if (frame.kind != Frame::Kind::kPredict) {
    // Admin and feedback (and error replies) must observe every predict
    // decoded before them on this connection — stats' queue_depth and the
    // drain ordering tests rely on admission happening first.
    flush_predict_burst(conn, burst);
  }
  // The reply address is frozen at admission: the parser recorded how the
  // request arrived, and `wrap` records the connection's framing now, so
  // a worker-thread callback never reads mutable poll-thread state.
  frame.reply.wrap = conn->binary;
  switch (frame.kind) {
    case Frame::Kind::kBad: {
      metrics.bad.add(1);
      PredictOutcome bad;
      bad.error = kErrBadRequest;
      bad.message = std::move(frame.error);
      queue_output(conn, encode_reply(frame.reply, bad, 0, 0.0));
      return;
    }

    case Frame::Kind::kAdmin:
      metrics.admin.add(1);
      handle_admin(conn, frame.reply, frame.admin);
      return;

    case Frame::Kind::kFeedback:
      metrics.feedback.add(1);
      handle_feedback(conn, frame.reply, frame.feedback);
      return;

    case Frame::Kind::kPredict:
      break;
  }

  metrics.requests.add(1);
  BatchItem item;
  item.transfer = frame.predict.transfer;
  item.load = frame.predict.load;
  item.explain = frame.predict.explain;
  item.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
  item.received_ns = received_ns;
  if (frame.predict.deadline_ms > 0)
    item.deadline_ns =
        obs::monotonic_ns() + frame.predict.deadline_ms * 1'000'000;
  conn->in_flight.fetch_add(1, std::memory_order_relaxed);
  // `this` outlives every callback: stop() drains the batcher before the
  // server (and its monitor) is torn down. The item answered carries the
  // trace id, receipt time, transfer and load.
  item.done = [this, conn, reply = frame.reply](const BatchItem& answered,
                                                const PredictOutcome& outcome) {
    auto& m = server_metrics();
    const double server_us =
        static_cast<double>(obs::monotonic_ns() - answered.received_ns) /
        1000.0;
    m.server_time.record(server_us);
    if (outcome.ok) {
      m.ok.add(1);
      monitor_.record_prediction(answered.trace_id, outcome.rate_mbps,
                                 outcome.model_version, answered.transfer,
                                 answered.load);
    } else {
      m.errors.add(1);
    }
    queue_output(conn, encode_reply(reply, outcome, answered.trace_id,
                                    server_us / 1000.0));
    conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (conn->read_closed.load(std::memory_order_relaxed))
      request_attention(conn);
  };

  // Parked, not submitted: process_input admits the whole readiness
  // round with one submit_burst (see flush_predict_burst for rejection).
  burst.push_back({std::move(item), std::move(frame.reply)});
}

void PredictionServer::flush_predict_burst(
    const std::shared_ptr<Connection>& conn,
    std::vector<PendingPredict>& burst) {
  if (burst.empty()) return;
  auto& metrics = server_metrics();
  std::vector<BatchItem> items;
  items.reserve(burst.size());
  for (PendingPredict& pending : burst) items.push_back(std::move(pending.item));
  MicroBatcher::Admission status = MicroBatcher::Admission::kAccepted;
  const std::size_t admitted =
      batcher_.submit_burst(items, conn->shard, status);
  // The rejected suffix (left in `items` untouched) is answered here with
  // a structured error, counted as overloaded/shutting_down (never
  // serve.response.error).
  if (admitted < burst.size()) {
    const bool draining = status == MicroBatcher::Admission::kShuttingDown;
    PredictOutcome rejected;
    rejected.error = draining ? kErrShuttingDown : kErrOverloaded;
    rejected.message = draining ? "server draining" : "prediction queue full";
    obs::Counter& counter =
        draining ? metrics.shutting_down : metrics.overloaded;
    for (std::size_t i = admitted; i < burst.size(); ++i) {
      counter.add(1);
      const double rejected_ms =
          static_cast<double>(obs::monotonic_ns() - items[i].received_ns) /
          1e6;
      queue_output(conn, encode_reply(burst[i].reply, rejected,
                                      items[i].trace_id, rejected_ms));
      conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  burst.clear();
}

void PredictionServer::handle_feedback(
    const std::shared_ptr<Connection>& conn, const ReplyTo& reply,
    const FeedbackRequest& feedback) {
  // Explained BEFORE the join consumes the journal entry: feedback
  // arrives orders of magnitude below predict rate, so one single-row
  // attribution walk per join is cheap, and recording it first means the
  // alarm edge the join may trigger sees this sample's contributions in
  // its window — the drift.attribution report includes the observation
  // that tripped it.
  core::PlannedTransfer joined_transfer;
  features::ContentionFeatures joined_load;
  if (monitor_.lookup(feedback.trace_id, joined_transfer, joined_load)) {
    try {
      const auto explained = host_.snapshot().predictor->explain_rates_mbps(
          std::span(&joined_transfer, 1), std::span(&joined_load, 1));
      if (!explained.empty())
        monitor_.record_attribution(explained.front().feature_names,
                                    explained.front().contributions);
    } catch (const std::exception& error) {
      server_metrics().attribution_errors.add(1);
      XFL_LOG(warn) << "feedback attribution failed"
                    << obs::kv("trace_id", feedback.trace_id)
                    << obs::kv("what", error.what());
    }
  }
  // Joined inline on the poll thread: one mutex-guarded map join, far
  // cheaper than a predict — no reason to batch it.
  const ServeMonitor::FeedbackResult result =
      monitor_.record_feedback(feedback.trace_id, feedback.observed_mbps);
  if (result.matched && feedback_hook_)
    feedback_hook_(result, feedback.trace_id, feedback.observed_mbps);
  send_response(conn, reply,
                feedback_response(reply.id, trace_id_string(feedback.trace_id),
                                  result));
}

void PredictionServer::handle_admin(const std::shared_ptr<Connection>& conn,
                                    const ReplyTo& reply,
                                    const AdminRequest& admin) {
  if (admin.cmd == "ping") {
    send_response(conn, reply, pong_response(reply.id, host_.version()));
    return;
  }
  if (admin.cmd == "stats") {
    auto& metrics = server_metrics();
    StatsReport report;
    report.queue_depth = batcher_.queue_depth();
    report.connections = conn_count_.load(std::memory_order_relaxed);
    report.shards = batcher_.shard_count();
    report.steals = batcher_.steals();
    report.model_version = host_.version();
    report.kernel = host_.snapshot().predictor->serving_kernel();
    report.requests = metrics.requests.value();
    report.rejected = metrics.overloaded.value() + metrics.bad.value();
    report.uptime_seconds =
        start_us_ == 0
            ? 0.0
            : static_cast<double>(obs::monotonic_us() - start_us_) / 1.0e6;
    metrics.uptime.set(report.uptime_seconds);
    report.latency_us = {
        {"server", stage_quantiles("serve.request.server_us")},
        {"parse", stage_quantiles("serve.request.parse_us")},
        {"queue_wait", stage_quantiles("serve.request.queue_wait_us")},
        {"assemble", stage_quantiles("serve.batch.assemble_us")},
        {"predict", stage_quantiles("serve.batch.predict_us")},
        {"respond", stage_quantiles("serve.batch.respond_us")},
    };
    report.batch_size = stage_quantiles("serve.batch.size");
    report.batches = obs::counter("serve.batch.count").value();
    report.batch_rows = obs::counter("serve.batch.rows").value();
    report.drift_options = monitor_.options();
    report.drift_alarm = monitor_.alarm_active();
    report.drift_alarms_total = obs::counter("serve.drift.alarms").value();
    report.feedback_count = obs::counter("serve.feedback.count").value();
    report.feedback_unmatched =
        obs::counter("serve.feedback.unmatched").value();
    report.versions = monitor_.version_stats();
    report.attribution_shift = monitor_.last_shift();
    if (admin.registry)
      report.registry_json = obs::Registry::instance().to_json();
    send_response(conn, reply, stats_response(reply.id, report));
    return;
  }
  if (admin.cmd == "retrain-status") {
    // The provider is one status-struct snapshot under a worker mutex —
    // cheap enough to answer inline like stats.
    send_response(conn, reply,
                  retrain_status_response(reply.id, retrain_status_
                                                        ? retrain_status_()
                                                        : std::string()));
    return;
  }
  // reload: runs on a short-lived thread of its own — a multi-second
  // model parse must not stall the event loop every connection shares.
  conn->in_flight.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(admin_mutex_);
  admin_threads_.emplace_back([this, conn, reply, path = admin.path] {
    try {
      send_response(conn, reply,
                    reload_response(reply.id, host_.reload_from_file(path)));
    } catch (const std::exception& error) {
      PredictOutcome failed;
      failed.error = kErrReloadFailed;
      failed.message = error.what();
      queue_output(conn, encode_reply(reply, failed, 0, 0.0));
    }
    conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (conn->read_closed.load(std::memory_order_relaxed))
      request_attention(conn);
  });
}

void PredictionServer::send_response(const std::shared_ptr<Connection>& conn,
                                     const ReplyTo& reply,
                                     std::string json_line) {
  if (reply.wrap) json_line = binary_json_frame(json_line);
  queue_output(conn, json_line);
}

void PredictionServer::cork_begin() { cork_state().active = true; }

void PredictionServer::cork_end() {
  Cork& cork = cork_state();
  cork.active = false;
  for (const auto& conn : cork.pending) {
    bool need_attention = false;
    {
      std::lock_guard lock(conn->out_mutex);
      need_attention = conn->flush_out();
    }
    // A fully-flushed reply may have been the last thing a half-closed
    // peer was owed; only the poll thread may act on that.
    if (!need_attention &&
        conn->read_closed.load(std::memory_order_relaxed) &&
        conn->in_flight.load(std::memory_order_seq_cst) == 0)
      need_attention = true;
    if (need_attention) request_attention(conn);
  }
  cork.pending.clear();
}

void PredictionServer::queue_output(const std::shared_ptr<Connection>& conn,
                                    std::string_view bytes) {
  Cork& cork = cork_state();
  bool need_attention = false;
  bool overflowed = false;
  {
    std::lock_guard lock(conn->out_mutex);
    if (conn->closed || conn->write_failed) return;
    const bool was_empty = conn->out.empty();
    conn->out.append(bytes.data(), bytes.size());
    if (conn->out.size() > kMaxOutBufferBytes) {
      conn->write_failed = true;
      conn->out.clear();
      overflowed = need_attention = true;
    } else if (was_empty) {
      // A non-empty buffer already has its flush owed (a cork or
      // EPOLLOUT). An empty one is flushed at batch end by a worker's
      // cork, or here, now, by any other thread.
      if (cork.active)
        cork.pending.push_back(conn);
      else
        need_attention = conn->flush_out();
    }
  }
  if (overflowed) {
    server_metrics().output_overflows.add(1);
    XFL_LOG(warn) << "reader fell behind; connection dropped"
                  << obs::kv("fd", conn->fd)
                  << obs::kv("cap_bytes", kMaxOutBufferBytes);
  }
  if (need_attention) request_attention(conn);
}

void PredictionServer::handle_writable(
    const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  {
    std::lock_guard lock(conn->out_mutex);
    conn->flush_out();
    if (conn->out.empty()) conn->want_write = false;
  }
  update_epoll_interest(*conn);
  maybe_close(conn);
}

void PredictionServer::fail_connection(
    const std::shared_ptr<Connection>& conn, const char* code,
    const std::string& message) {
  if (conn->dead) return;
  ReplyTo to;
  to.packed = to.wrap = conn->binary;
  PredictOutcome failure;
  failure.error = code;
  failure.message = message;
  queue_output(conn, encode_reply(to, failure, 0, 0.0));
  conn->read_closed.store(true, std::memory_order_relaxed);
  conn->in.clear();
  conn->partial_since_us = 0;
  update_epoll_interest(*conn);
  maybe_close(conn);
}

void PredictionServer::maybe_close(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  // Order matters: sample in_flight before the out buffer. A worker
  // queues its response before decrementing in_flight, so in_flight == 0
  // here means every response is already visible in `out` (or sent).
  const bool no_inflight =
      conn->in_flight.load(std::memory_order_seq_cst) == 0;
  bool failed = false;
  bool out_empty = false;
  {
    std::lock_guard lock(conn->out_mutex);
    failed = conn->write_failed;
    out_empty = conn->out.empty();
  }
  if (failed ||
      (conn->read_closed.load(std::memory_order_relaxed) && no_inflight &&
       out_empty))
    close_connection(conn);
}

void PredictionServer::close_connection(
    const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  {
    std::lock_guard lock(conn->out_mutex);
    conn->closed = true;
    conn->out.clear();
    conn->want_write = false;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::shutdown(conn->fd, SHUT_RDWR);
  if (static_cast<std::size_t>(conn->fd) < conns_.size())
    conns_[static_cast<std::size_t>(conn->fd)].reset();
  server_metrics().active.set(static_cast<double>(
      conn_count_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

void PredictionServer::sweep_partial_frame_timeouts(std::uint64_t now_us) {
  if (options_.partial_frame_timeout_ms == 0) return;
  const std::uint64_t budget_us = options_.partial_frame_timeout_ms * 1000;
  for (std::size_t fd = 0; fd < conns_.size(); ++fd) {
    const std::shared_ptr<Connection> conn = conns_[fd];
    if (!conn || conn->dead || conn->partial_since_us == 0) continue;
    if (now_us - conn->partial_since_us < budget_us) continue;
    server_metrics().frame_timeouts.add(1);
    fail_connection(conn, kErrFrameTimeout,
                    "partial frame stalled past timeout");
  }
}

void PredictionServer::update_epoll_interest(Connection& conn) {
  if (conn.dead) return;
  std::uint32_t desired =
      conn.read_closed.load(std::memory_order_relaxed) ? 0u : EPOLLIN;
  {
    std::lock_guard lock(conn.out_mutex);
    if (conn.want_write) desired |= EPOLLOUT;
  }
  if (desired == conn.interest) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = desired;
}

void PredictionServer::drain_pending_attention() {
  std::vector<std::shared_ptr<Connection>> pending;
  {
    std::lock_guard lock(attention_mutex_);
    pending.swap(attention_);
  }
  for (const auto& conn : pending) {
    if (conn->dead) continue;
    update_epoll_interest(*conn);
    maybe_close(conn);
  }
}

void PredictionServer::request_attention(
    const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard lock(attention_mutex_);
    attention_.push_back(conn);
  }
  wake();
}

void PredictionServer::join_admin_threads() {
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(admin_mutex_);
    threads.swap(admin_threads_);
  }
  for (auto& thread : threads)
    if (thread.joinable()) thread.join();
}

}  // namespace xfl::serve
