// Competing-load feature engineering (§4.3.1 of the paper).
//
// For every transfer k, three groups of features aggregate the *other*
// Globus transfers that overlap it in time at its source or destination:
//
//   K (Eq. 2)  — equivalent contending transfer rate: each competitor's
//                rate scaled by the fraction of k's duration it overlaps,
//                summed by endpoint and direction (Ksout, Ksin, Kdout, Kdin).
//   G          — equivalent GridFTP instance count: overlap-scaled
//                min(C_i, F_i), summed over all competitors touching k's
//                source (Gsrc) or destination (Gdst) in either direction.
//   S          — equivalent parallel TCP streams: overlap-scaled
//                min(C_i, F_i) * P_i by endpoint and direction
//                (Ssout, Ssin, Sdout, Sdin).
//
// The sweep is an interval-overlap join per endpoint: transfers sorted by
// start time with an active set, so the cost is O(n log n + overlapping
// pairs) per endpoint.
#pragma once

#include <vector>

#include "logs/log_store.hpp"

namespace xfl::features {

/// Per-transfer contention features, aligned with Table 2's notation.
/// All K values are in bytes/second; G and S are dimensionless equivalents.
struct ContentionFeatures {
  double k_sout = 0.0;  ///< Contending outgoing rate at the source.
  double k_sin = 0.0;   ///< Contending incoming rate at the source.
  double k_dout = 0.0;  ///< Contending outgoing rate at the destination.
  double k_din = 0.0;   ///< Contending incoming rate at the destination.
  double g_src = 0.0;   ///< Equivalent GridFTP instances at the source.
  double g_dst = 0.0;   ///< Equivalent GridFTP instances at the destination.
  double s_sout = 0.0;  ///< Contending outgoing TCP streams at the source.
  double s_sin = 0.0;   ///< Contending incoming TCP streams at the source.
  double s_dout = 0.0;  ///< Contending outgoing TCP streams at the destination.
  double s_din = 0.0;   ///< Contending incoming TCP streams at the destination.
};

/// Compute contention features for every record in the log (result is
/// parallel to log.records()).
///
/// `threads`: 0 = hardware concurrency, 1 = serial, otherwise the worker
/// count. The sweep fans out per endpoint: each endpoint accumulates into
/// its own local buffer (a record appears under both its src and dst
/// endpoints, so sharing the output array across endpoint sweeps would
/// race), and the buffers are merged in ascending endpoint order at the
/// end. Because per-endpoint sweeps and the merge order are both fixed,
/// the result is bit-identical for every thread count.
std::vector<ContentionFeatures> compute_contention(const logs::LogStore& log,
                                                   int threads = 1);

/// Prediction-time load: the paper's features are computed after the fact
/// (a transfer's competitors are known once it completes), but a scheduler
/// asking "how fast would a transfer starting NOW run?" needs the load it
/// should expect. snapshot_load derives the same K/G/S quantities for a
/// transfer on `edge` submitted at `now_s` from the transfers in `log` in
/// flight at that instant (start <= now < end), assuming they keep running
/// at their historical average rate. Each competitor contributes with
/// overlap weight 1 (the candidate is assumed to start inside the
/// competitor's lifetime), under the same direction rules as
/// compute_contention.
ContentionFeatures snapshot_load(const logs::LogStore& log,
                                 const logs::EdgeKey& edge, double now_s);

/// Number of transfers in flight at `now_s` touching endpoint `id`.
std::size_t active_transfers_at(const logs::LogStore& log,
                                endpoint::EndpointId id, double now_s);

/// Relative external load of one transfer (§3.2): the larger of
/// Ksout/(R+Ksout) and Kdin/(R+Kdin). Always in [0, 1).
double relative_external_load(const logs::TransferRecord& record,
                              const ContentionFeatures& features);

}  // namespace xfl::features
