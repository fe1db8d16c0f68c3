// Steady-state TCP throughput model used to derive per-flow rate ceilings
// in the fluid simulator.
//
// A single TCP stream over a long fat pipe is limited by the smaller of the
// window bound (wnd / RTT) and the loss bound (the Mathis et al. formula
// MSS / (RTT * sqrt(2p/3))). GridFTP's parallelism parameter P opens P
// streams per process pair precisely to multiply these bounds (§4.1, §6 of
// the paper); aggregate parallel-stream throughput scales ~linearly in the
// stream count until it saturates the path, with a mild diminishing-returns
// correction for self-induced congestion.
#pragma once

#include <cstdint>

namespace xfl::net {

/// Static parameters of a TCP stack/stream configuration.
struct TcpConfig {
  double mss_bytes = 8948.0;        ///< Jumbo-frame MSS typical of DTNs.
  /// Autotuned socket buffer ceiling. DTNs are tuned for long fat pipes
  /// (fasterdata-style 64 MB buffers); anything small would window-limit
  /// every intercontinental stream regardless of loss.
  double max_window_bytes = 6.4e7;
};

/// Loss-bound throughput of one stream (Mathis): MSS / (RTT * sqrt(2p/3)).
/// p == 0 yields infinity-like ceiling represented by a very large value.
/// Preconditions: rtt_s > 0, loss_rate in [0, 1).
double mathis_throughput_Bps(const TcpConfig& cfg, double rtt_s, double loss_rate);

/// Window-bound throughput of one stream: max_window / RTT.
/// Precondition: rtt_s > 0.
double window_throughput_Bps(const TcpConfig& cfg, double rtt_s);

/// Ceiling for a single stream: min(window bound, loss bound).
double single_stream_ceiling_Bps(const TcpConfig& cfg, double rtt_s, double loss_rate);

/// Aggregate ceiling for `streams` parallel streams on one path. Scales the
/// single-stream ceiling by an effective stream count with diminishing
/// returns: n_eff = n / (1 + n / n_half), calibrated so that a handful of
/// streams recovers most of the path on lossy links while very large stream
/// counts stop helping (paper: "more TCP streams do not always contribute
/// to higher aggregate transfer rate", §5.1).
/// Preconditions: streams >= 1, rtt_s > 0, loss_rate in [0, 1).
double parallel_stream_ceiling_Bps(const TcpConfig& cfg, std::uint32_t streams,
                                   double rtt_s, double loss_rate);

}  // namespace xfl::net
