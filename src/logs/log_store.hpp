// In-memory transfer log with per-edge and per-endpoint indexing, CSV
// round-trip, filtering, and anonymisation. This is the data structure the
// whole feature-engineering pipeline consumes; it plays the role of the
// paper's Globus log extract.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "logs/record.hpp"

namespace xfl::logs {

/// Append-only collection of transfer records with derived indexes.
class LogStore {
 public:
  LogStore() = default;

  /// Append a record. Requires record.valid(). Ids need not be unique or
  /// ordered, but times should be on one clock.
  void append(TransferRecord record);

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const TransferRecord& operator[](std::size_t i) const { return records_[i]; }
  const std::vector<TransferRecord>& records() const { return records_; }

  /// All distinct directed edges, most-used first.
  std::vector<EdgeKey> edges_by_usage() const;

  /// Number of transfers on one edge.
  std::size_t edge_count(const EdgeKey& edge) const;

  /// Indices (into records()) of transfers on one edge, start-time ordered.
  std::vector<std::size_t> edge_transfers(const EdgeKey& edge) const;

  /// Indices of transfers that touch one endpoint (as source or
  /// destination), start-time ordered. Used by the contention sweep.
  std::vector<std::size_t> endpoint_transfers(endpoint::EndpointId id) const;

  /// Maximum observed rate on one edge (the per-edge Rmax(E) of §4.3.2).
  /// Requires the edge to have at least one transfer.
  double edge_max_rate(const EdgeKey& edge) const;

  /// CSV round-trip. The header names the Globus-schema columns; endpoint
  /// ids are written as integers (anonymised form, matching the paper's
  /// published anonymised dataset).
  void write_csv(std::ostream& out) const;
  static LogStore read_csv(std::istream& in);

 private:
  std::vector<TransferRecord> records_;
  std::map<EdgeKey, std::vector<std::size_t>> by_edge_;
  std::map<endpoint::EndpointId, std::vector<std::size_t>> by_endpoint_;
};

}  // namespace xfl::logs
