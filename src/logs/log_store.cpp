#include "logs/log_store.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/csv.hpp"
#include "obs/log.hpp"

namespace xfl::logs {

void LogStore::append(TransferRecord record) {
  XFL_EXPECTS(record.valid());
  const std::size_t index = records_.size();
  by_edge_[record.edge()].push_back(index);
  by_endpoint_[record.src].push_back(index);
  if (record.dst != record.src) by_endpoint_[record.dst].push_back(index);
  records_.push_back(std::move(record));
}

std::vector<EdgeKey> LogStore::edges_by_usage() const {
  std::vector<EdgeKey> edges;
  edges.reserve(by_edge_.size());
  for (const auto& [edge, indices] : by_edge_) edges.push_back(edge);
  std::stable_sort(edges.begin(), edges.end(),
                   [this](const EdgeKey& a, const EdgeKey& b) {
                     return by_edge_.at(a).size() > by_edge_.at(b).size();
                   });
  return edges;
}

std::size_t LogStore::edge_count(const EdgeKey& edge) const {
  auto it = by_edge_.find(edge);
  return it == by_edge_.end() ? 0 : it->second.size();
}

namespace {
std::vector<std::size_t> sorted_by_start(
    const std::vector<TransferRecord>& records, std::vector<std::size_t> idx) {
  std::sort(idx.begin(), idx.end(), [&records](std::size_t a, std::size_t b) {
    if (records[a].start_s != records[b].start_s)
      return records[a].start_s < records[b].start_s;
    return a < b;
  });
  return idx;
}
}  // namespace

std::vector<std::size_t> LogStore::edge_transfers(const EdgeKey& edge) const {
  auto it = by_edge_.find(edge);
  if (it == by_edge_.end()) return {};
  return sorted_by_start(records_, it->second);
}

std::vector<std::size_t> LogStore::endpoint_transfers(
    endpoint::EndpointId id) const {
  auto it = by_endpoint_.find(id);
  if (it == by_endpoint_.end()) return {};
  return sorted_by_start(records_, it->second);
}

double LogStore::edge_max_rate(const EdgeKey& edge) const {
  auto it = by_edge_.find(edge);
  XFL_EXPECTS(it != by_edge_.end() && !it->second.empty());
  double best = 0.0;
  for (std::size_t i : it->second) best = std::max(best, records_[i].rate_Bps());
  return best;
}

namespace {
constexpr const char* kCsvHeader[] = {
    "id",          "src",   "dst",   "start_s", "end_s",
    "bytes",       "files", "dirs",  "C",       "P",
    "faults",      "src_type",       "dst_type"};
constexpr std::size_t kCsvColumns = std::size(kCsvHeader);
}  // namespace

void LogStore::write_csv(std::ostream& out) const {
  CsvWriter writer(out);
  writer.write_row(CsvRow(kCsvHeader, kCsvHeader + kCsvColumns));
  std::string line;
  const auto fields = [&line](auto... v) {
    ((append_number(line, v), line += ','), ...);
  };
  for (const auto& r : records_) {
    line.clear();
    fields(r.id, r.src, r.dst, r.start_s, r.end_s, r.bytes, r.files, r.dirs,
           r.concurrency, r.parallelism, r.faults);
    line += to_string(r.src_type);
    line += ',';
    line += to_string(r.dst_type);
    line += '\n';
    out << line;
  }
}

LogStore LogStore::read_csv(std::istream& in) {
  const std::string where = "LogStore::read_csv";
  CsvReader csv(in);
  LogStore store;
  if (!csv.next()) return store;
  const auto header = csv.row();
  for (std::size_t c = 0; c < std::max(header.size(), kCsvColumns); ++c) {
    const std::string_view got = c < header.size() ? header[c] : "";
    const std::string_view want = c < kCsvColumns ? kCsvHeader[c] : "";
    if (got != want || c >= kCsvColumns)
      throw std::runtime_error(where + ": header column " +
                               std::to_string(c + 1) + " is '" +
                               std::string(got) + "', expected '" +
                               std::string(want) + "'");
  }
  store.records_.reserve(csv.rows_bound());
  for (std::size_t i = 1; csv.next(); ++i) {
    const auto row = csv.row();
    if (row.size() != kCsvColumns)
      throw std::runtime_error(where + ": bad column count in row " +
                               std::to_string(i));
    TransferRecord r;
    std::size_t c = 0;
    const auto fields = [&](auto&... out) {
      ((parse_csv_field(row[c], out, where, i, kCsvHeader[c]), ++c), ...);
    };
    fields(r.id, r.src, r.dst, r.start_s, r.end_s, r.bytes, r.files, r.dirs,
           r.concurrency, r.parallelism, r.faults);
    const auto type = [&](std::size_t column) {
      for (const auto t : {endpoint::EndpointType::kServer,
                           endpoint::EndpointType::kPersonal})
        if (row[column] == to_string(t)) return t;
      throw std::runtime_error(where + ": bad endpoint type '" +
                               std::string(row[column]) + "' in row " +
                               std::to_string(i) + ", column '" +
                               kCsvHeader[column] + "'");
    };
    r.src_type = type(11);
    r.dst_type = type(12);
    if (!std::isfinite(r.start_s) || !std::isfinite(r.end_s) ||
        !std::isfinite(r.bytes) || !r.valid())
      throw std::runtime_error(
          where + ": row " + std::to_string(i) +
          " is not a transfer (finite times and bytes, end_s > start_s, "
          "bytes >= 0, files, dirs, C and P >= 1)");
    store.append(std::move(r));
  }
  XFL_LOG(debug) << "log csv loaded" << obs::kv("records", store.size())
                 << obs::kv("edges", store.edges_by_usage().size());
  return store;
}

}  // namespace xfl::logs
