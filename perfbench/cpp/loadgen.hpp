// Single-threaded load generator for the prediction server: non-blocking
// loopback sockets multiplexed with ppoll(2), requests encoded and
// replies decoded with the protocol's own encoders and parsers (either
// framing). Two disciplines:
//   * closed loop — every connection keeps a fixed window of requests
//     outstanding, so throughput is what the server can sustain;
//   * open loop — requests leave on a precomputed (seeded Poisson)
//     schedule regardless of replies, and latency is timed from when each
//     request was due, so a stall also charges the requests it delayed.
// The generator reports how late it ran against its own schedule so an
// overloaded generator is told apart from an overloaded server.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t { kPredict = 0, kExplain = 1, kFeedback = 2 };
inline constexpr std::size_t kKinds = 3;

/// Latency charged to a failed, refused or unanswered request: far above
/// any latency limit, so it always counts as a miss.
inline constexpr double kMissUs = 1e9;

/// One request, as the workload chose it and the generator timed it.
struct Request {
  Kind kind = Kind::kPredict;
  std::uint16_t top_k = 0;
  std::uint32_t conn = 0;
  std::uint32_t pool = 0;            ///< Row of the workload's request pool.
  std::uint64_t feedback_trace = 0;  ///< Feedback: the prediction reported on.
  std::int64_t due_ns = 0;           ///< Scheduled send time (open loop).
  std::int64_t sent_ns = 0;
};

/// One decoded reply, from either framing.
struct Reply {
  bool ok = false;
  std::string error;
  double rate_mbps = 0.0;
  double raw_mbps = 0.0;
  double bias_mbps = 0.0;
  bool edge_model = false;
  std::uint64_t trace_id = 0;
  bool matched = false;  ///< Feedback replies.
  std::vector<std::pair<std::string, double>> contributions;
};

/// The workload's side of the traffic.
struct Traffic {
  /// Choose the next request's content (kind, pool row, top_k, trace).
  std::function<void(Request&)> make;
  /// Append one encoded request frame with wire id `id` to `out`.
  std::function<void(std::string& out, std::uint64_t id, const Request&)>
      encode;
  /// Oracle: true when `reply` is the right answer to `request`.
  std::function<bool(const Request&, const Reply&)> check;
};

struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;    ///< "overloaded" replies.
  std::uint64_t timed_out = 0;  ///< "timeout" replies or never answered.
  std::uint64_t errors = 0;     ///< Any other error reply.
  std::uint64_t wrong = 0;      ///< ok replies the oracle rejected.
  /// Correct replies and their summed latency, per kind.
  std::uint64_t ok_by_kind[kKinds] = {0, 0, 0};
  double latency_sum_us[kKinds] = {0.0, 0.0, 0.0};
  /// Open loop: per-kind latency from due time (misses = kMissUs), and
  /// in parallel when each request was due, in seconds into the phase.
  std::vector<double> latency_us[kKinds];
  std::vector<double> due_s[kKinds];
  /// Open loop: how late each request left against its schedule, in
  /// schedule order (request k was due at offsets_ns[k]).
  std::vector<double> late_us;
  std::vector<double> late_due_s;
  /// Open loop: replies still outstanding when the schedule ended.
  std::uint64_t backlog = 0;
  /// Closed loop: completed requests per second in each full slice.
  std::vector<double> slice_rps;

  std::uint64_t failed() const { return refused + timed_out + errors + wrong; }
  std::vector<double> all_latency_us() const;
  /// The p-th latency percentile of each `window_s` window of due times,
  /// skipping windows with fewer than `min_samples` requests and windows
  /// in which the generator itself ran late (p99 lateness above
  /// `max_late_us`: the host stalled the generator, so the window does
  /// not measure the server). Empty if every window ran late. Their
  /// median is a typical window's tail, which a stall of a shared host
  /// cannot swing the way it swings the whole phase's.
  std::vector<double> window_quantiles_us(double p, double window_s,
                                          std::size_t min_samples,
                                          double max_late_us) const;
  /// Mean latency of correct replies of the given kinds.
  double mean_latency_us(std::initializer_list<Kind> kinds) const;
};

class LoadGen {
 public:
  /// Connects `connections` sockets to 127.0.0.1:port (negotiating the
  /// binary framing when `binary`). Throws std::runtime_error on failure.
  LoadGen(std::uint16_t port, std::size_t connections, bool binary,
          Traffic traffic);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Keep `window` requests outstanding per connection for `seconds`,
  /// counting completions in `slice_s` slices; then drain.
  PhaseStats closed_loop(double seconds, std::size_t window, double slice_s);

  /// Send request k at start + offsets_ns[k], then drain.
  PhaseStats open_loop(const std::vector<std::int64_t>& offsets_ns);

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::size_t out_sent = 0;
  };

  void issue(std::uint32_t conn, std::int64_t due_ns, std::int64_t now_ns);
  void flush(Conn& conn);
  void flush_all();
  /// Wait up to `timeout_ns` for socket readiness and handle it.
  void pump(std::int64_t timeout_ns);
  void read_conn(Conn& conn);
  void complete(std::uint64_t id, const Reply& reply, std::int64_t now_ns);
  void record_open(const Request& request, double latency_us);
  /// Wait for outstanding replies; what is still missing times out.
  void drain(double limit_s);

  bool binary_ = false;
  Traffic traffic_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, Request> inflight_;
  std::uint64_t next_id_ = 1;

  // The phase being measured.
  PhaseStats* phase_ = nullptr;
  bool open_ = false;
  bool refill_ = false;  ///< Closed loop: replace each completed request.
  std::int64_t phase_start_ns_ = 0;
  std::int64_t slice_ns_ = 0;
  std::vector<std::uint64_t> slice_counts_;
};

/// Seeded Poisson arrivals at `rate` per second for `seconds`, as offsets
/// in nanoseconds from the start of the phase.
std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           std::uint64_t seed);

}  // namespace perfbench
