#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace xs = xfl::serve;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("loadgen: ") + what + ": " +
                           std::strerror(errno));
}

/// Decode one JSON reply document; returns its numeric wire id.
std::uint64_t decode_json_reply(std::string_view text, Reply& reply) {
  const xs::JsonValue root = xs::parse_json(text);
  std::uint64_t id = 0;
  if (const auto* v = root.find("id"); v && v->is_string())
    std::from_chars(v->string.data(), v->string.data() + v->string.size(), id);
  if (const auto* v = root.find("ok"); v && v->is_bool()) reply.ok = v->boolean;
  if (const auto* v = root.find("error"); v && v->is_string())
    reply.error = v->string;
  if (const auto* v = root.find("rate_mbps"); v && v->is_number())
    reply.rate_mbps = v->number;
  if (const auto* v = root.find("raw_mbps"); v && v->is_number())
    reply.raw_mbps = v->number;
  if (const auto* v = root.find("bias_mbps"); v && v->is_number())
    reply.bias_mbps = v->number;
  if (const auto* v = root.find("model"); v && v->is_string())
    reply.edge_model = v->string == "edge";
  if (const auto* v = root.find("trace_id"); v && v->is_string())
    xs::parse_trace_id(v->string, reply.trace_id);
  if (const auto* v = root.find("matched"); v && v->is_bool())
    reply.matched = v->boolean;
  if (const auto* v = root.find("contributions"); v && v->is_array())
    for (const auto& entry : v->array) {
      const auto* feature = entry.find("feature");
      const auto* mbps = entry.find("mbps");
      if (feature && feature->is_string() && mbps && mbps->is_number())
        reply.contributions.emplace_back(feature->string, mbps->number);
    }
  return id;
}

}  // namespace

std::vector<double> PhaseStats::all_latency_us() const {
  std::vector<double> all;
  for (const auto& kind : latency_us) all.insert(all.end(), kind.begin(), kind.end());
  return all;
}

std::vector<double> PhaseStats::window_quantiles_us(
    double p, double window_s, std::size_t min_samples,
    double max_late_us) const {
  const auto window_of = [&](double due) {
    return static_cast<std::size_t>(std::max(due, 0.0) / window_s);
  };
  std::vector<std::vector<double>> latencies, lateness;
  for (std::size_t kind = 0; kind < kKinds; ++kind)
    for (std::size_t i = 0; i < latency_us[kind].size(); ++i) {
      const std::size_t w = window_of(due_s[kind][i]);
      if (w >= latencies.size()) latencies.resize(w + 1);
      latencies[w].push_back(latency_us[kind][i]);
    }
  lateness.resize(latencies.size());
  for (std::size_t i = 0; i < late_us.size(); ++i) {
    const std::size_t w = window_of(late_due_s[i]);
    if (w < lateness.size()) lateness[w].push_back(late_us[i]);
  }
  std::vector<double> on_time;
  for (std::size_t w = 0; w < latencies.size(); ++w)
    if (latencies[w].size() >= min_samples &&
        quantile(lateness[w], 99.0) <= max_late_us)
      on_time.push_back(quantile(latencies[w], p));
  return on_time;
}

double PhaseStats::mean_latency_us(std::initializer_list<Kind> kinds) const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const Kind kind : kinds) {
    sum += latency_sum_us[static_cast<std::size_t>(kind)];
    count += ok_by_kind[static_cast<std::size_t>(kind)];
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

LoadGen::LoadGen(std::uint16_t port, std::size_t connections, bool binary,
                 Traffic traffic)
    : binary_(binary), traffic_(std::move(traffic)) {
  try {
    for (std::size_t i = 0; i < connections; ++i) {
      Conn conn;
      conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (conn.fd < 0) throw_errno("socket");
      conns_.push_back(conn);
      sockaddr_in address{};
      address.sin_family = AF_INET;
      address.sin_port = htons(port);
      address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&address),
                    sizeof address) != 0)
        throw_errno("connect");
      const int nodelay = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
      if (binary_) {
        // Blocking handshake: send the magic, wait for its echo.
        if (::send(conn.fd, xs::kBinaryMagic.data(), xs::kBinaryMagic.size(),
                   MSG_NOSIGNAL) != static_cast<ssize_t>(xs::kBinaryMagic.size()))
          throw_errno("send magic");
        std::string ack;
        while (ack.size() < xs::kBinaryMagic.size()) {
          char chunk[16];
          const ssize_t n = ::recv(conn.fd, chunk,
                                   xs::kBinaryMagic.size() - ack.size(), 0);
          if (n <= 0) throw_errno("binary handshake");
          ack.append(chunk, static_cast<std::size_t>(n));
        }
        if (ack != xs::kBinaryMagic)
          throw std::runtime_error("loadgen: server refused binary framing");
      }
      const int flags = ::fcntl(conn.fd, F_GETFL, 0);
      if (flags < 0 || ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) != 0)
        throw_errno("fcntl");
    }
  } catch (...) {
    for (const auto& conn : conns_) ::close(conn.fd);
    throw;
  }
}

LoadGen::~LoadGen() {
  for (const auto& conn : conns_) ::close(conn.fd);
}

void LoadGen::issue(std::uint32_t conn, std::int64_t due_ns,
                    std::int64_t sent_ns) {
  Request request;
  traffic_.make(request);
  request.conn = conn;
  request.due_ns = due_ns;
  request.sent_ns = sent_ns;
  const std::uint64_t id = next_id_++;
  traffic_.encode(conns_[conn].out, id, request);
  inflight_.emplace(id, request);
  ++phase_->sent;
}

void LoadGen::flush(Conn& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_sent,
               conn.out.size() - conn.out_sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    throw_errno("send");
  }
  conn.out.clear();
  conn.out_sent = 0;
}

void LoadGen::flush_all() {
  for (auto& conn : conns_)
    if (!conn.out.empty()) flush(conn);
}

void LoadGen::pump(std::int64_t timeout_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = POLLIN;
    if (!conns_[i].out.empty()) fds[i].events |= POLLOUT;
  }
  timespec timeout{};
  timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
  timeout.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  timeout.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw_errno("ppoll");
  }
  for (std::size_t i = 0; i < fds.size() && ready > 0; ++i) {
    if (fds[i].revents & (POLLERR | POLLNVAL))
      throw std::runtime_error("loadgen: socket error");
    if (fds[i].revents & (POLLIN | POLLHUP)) read_conn(conns_[i]);
    if (fds[i].revents & POLLOUT) flush(conns_[i]);
  }
}

void LoadGen::read_conn(Conn& conn) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n == 0) throw std::runtime_error("loadgen: server closed a connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    throw_errno("recv");
  }
  const std::int64_t now = now_ns();
  std::size_t offset = 0;
  for (;;) {
    Reply reply;
    std::uint64_t id = 0;
    if (binary_) {
      const auto frame =
          xs::decode_binary_frame(std::string_view(conn.in).substr(offset));
      if (frame.status == xs::BinaryDecode::Status::kNeedMore) break;
      if (frame.status == xs::BinaryDecode::Status::kBad)
        throw std::runtime_error("loadgen: bad frame: " + frame.error);
      offset += frame.consumed;
      if (frame.type == xs::BinaryType::kJson) {
        id = decode_json_reply(frame.payload, reply);
      } else {
        auto packed = xs::parse_binary_reply(frame.type, frame.payload);
        id = packed.id;
        reply.ok = packed.ok;
        reply.error = std::move(packed.error);
        reply.rate_mbps = packed.rate_mbps;
        reply.raw_mbps = packed.raw_mbps;
        reply.bias_mbps = packed.bias_mbps;
        reply.edge_model = packed.edge_model;
        reply.trace_id = packed.trace_id;
        reply.contributions = std::move(packed.contributions);
      }
    } else {
      const std::size_t newline = conn.in.find('\n', offset);
      if (newline == std::string::npos) break;
      const std::string_view line(conn.in.data() + offset, newline - offset);
      offset = newline + 1;
      id = decode_json_reply(line, reply);
    }
    complete(id, reply, now);
  }
  conn.in.erase(0, offset);
}

void LoadGen::complete(std::uint64_t id, const Reply& reply,
                       std::int64_t now_ns) {
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;  // Answered after its phase gave up.
  const Request request = it->second;
  inflight_.erase(it);
  PhaseStats& stats = *phase_;
  const auto kind = static_cast<std::size_t>(request.kind);
  const double latency_us =
      static_cast<double>(now_ns - (open_ ? request.due_ns : request.sent_ns)) /
      1e3;
  bool good = false;
  if (reply.ok) {
    good = traffic_.check(request, reply);
    ++(good ? stats.ok : stats.wrong);
  } else if (reply.error == xs::kErrOverloaded) {
    ++stats.refused;
  } else if (reply.error == xs::kErrTimeout) {
    ++stats.timed_out;
  } else {
    ++stats.errors;
  }
  if (good) {
    ++stats.ok_by_kind[kind];
    stats.latency_sum_us[kind] += latency_us;
  }
  if (open_) record_open(request, good ? latency_us : kMissUs);
  if (!open_ && now_ns >= phase_start_ns_) {
    const auto slice =
        static_cast<std::size_t>((now_ns - phase_start_ns_) / slice_ns_);
    if (slice < slice_counts_.size()) ++slice_counts_[slice];
  }
  if (refill_) issue(request.conn, now_ns, now_ns);
}

void LoadGen::drain(double limit_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(limit_s * 1e9);
  while (!inflight_.empty() && now_ns() < deadline) {
    flush_all();
    pump(1'000'000);
  }
  for (const auto& [id, request] : inflight_) {
    ++phase_->timed_out;
    if (open_) record_open(request, kMissUs);
  }
  inflight_.clear();
}

void LoadGen::record_open(const Request& request, double latency_us) {
  const auto kind = static_cast<std::size_t>(request.kind);
  phase_->latency_us[kind].push_back(latency_us);
  phase_->due_s[kind].push_back(
      static_cast<double>(request.due_ns - phase_start_ns_) / 1e9);
}

PhaseStats LoadGen::closed_loop(double seconds, std::size_t window,
                                double slice_s) {
  PhaseStats stats;
  phase_ = &stats;
  open_ = false;
  slice_ns_ = static_cast<std::int64_t>(slice_s * 1e9);
  slice_counts_.assign(
      static_cast<std::size_t>(std::floor(seconds / slice_s + 1e-9)), 0);
  phase_start_ns_ = now_ns();
  const std::int64_t end = phase_start_ns_ + static_cast<std::int64_t>(
                                                 static_cast<double>(slice_counts_.size()) *
                                                 static_cast<double>(slice_ns_));
  refill_ = true;
  for (std::uint32_t c = 0; c < conns_.size(); ++c)
    for (std::size_t w = 0; w < window; ++w) issue(c, phase_start_ns_, now_ns());
  flush_all();
  while (now_ns() < end) {
    pump(1'000'000);
    flush_all();
  }
  refill_ = false;
  stats.seconds = static_cast<double>(now_ns() - phase_start_ns_) / 1e9;
  drain(5.0);
  for (const auto count : slice_counts_)
    stats.slice_rps.push_back(static_cast<double>(count) / slice_s);
  phase_ = nullptr;
  return stats;
}

PhaseStats LoadGen::open_loop(const std::vector<std::int64_t>& offsets_ns) {
  PhaseStats stats;
  phase_ = &stats;
  open_ = true;
  refill_ = false;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    stats.latency_us[kind].reserve(offsets_ns.size());
    stats.due_s[kind].reserve(offsets_ns.size());
  }
  stats.late_us.reserve(offsets_ns.size());
  phase_start_ns_ = now_ns() + 1'000'000;
  std::size_t next = 0;
  std::uint32_t conn = 0;
  while (next < offsets_ns.size()) {
    const std::int64_t now = now_ns();
    while (next < offsets_ns.size() &&
           phase_start_ns_ + offsets_ns[next] <= now) {
      const std::int64_t due = phase_start_ns_ + offsets_ns[next];
      issue(conn, due, now);
      stats.late_us.push_back(static_cast<double>(now - due) / 1e3);
      stats.late_due_s.push_back(static_cast<double>(offsets_ns[next]) / 1e9);
      conn = (conn + 1) % static_cast<std::uint32_t>(conns_.size());
      ++next;
    }
    flush_all();
    if (next >= offsets_ns.size()) break;
    // Sleep through long gaps only, waking a millisecond early, and spin
    // otherwise: a sleeping thread's wake-up delay would make the
    // generator itself late.
    const std::int64_t gap = phase_start_ns_ + offsets_ns[next] - now_ns();
    pump(gap > 2'000'000 ? gap - 1'000'000 : 0);
  }
  stats.seconds = static_cast<double>(now_ns() - phase_start_ns_) / 1e9;
  stats.backlog = inflight_.size();
  drain(5.0);
  phase_ = nullptr;
  return stats;
}

std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = gap(rng); t < seconds; t += gap(rng))
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  return offsets;
}

}  // namespace perfbench
