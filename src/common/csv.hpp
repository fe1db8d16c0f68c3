// Minimal CSV reader/writer for transfer logs and derived datasets. Handles
// quoting per RFC 4180 (quoted fields, embedded commas/quotes/newlines).
// The paper's published dataset is CSV; we mirror that at our I/O boundary
// so users can export simulated logs and re-import them.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/number.hpp"

namespace xfl {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Parse a full CSV document from a stream. Rows may have differing widths;
/// callers validate shape. Throws std::runtime_error on malformed quoting.
std::vector<CsvRow> read_csv(std::istream& in);

/// Parse a CSV file from disk. Throws std::runtime_error if unreadable.
std::vector<CsvRow> read_csv_file(const std::string& path);

/// Escape a single field per RFC 4180 (quote only when necessary).
std::string csv_escape(const std::string& field);

/// Parse a numeric CSV field with the number codec (common/number.hpp).
/// Throws std::runtime_error naming `where`, the row and the column when
/// the field is not one whole number that fits T.
template <class T>
void parse_csv_field(const std::string& field, T& out, std::string_view where,
                     std::size_t row, std::string_view column) {
  if (!parse_number(field, out))
    throw std::runtime_error(std::string(where) + ": bad number '" + field +
                             "' in row " + std::to_string(row) +
                             ", column '" + std::string(column) + "'");
}

/// Streaming CSV writer.
class CsvWriter {
 public:
  /// Writes to the given stream, which must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Write one row (escapes each field).
  void write_row(const CsvRow& row);

  /// Convenience: write a row of doubles with full round-trip precision.
  void write_row(const std::vector<double>& row);

 private:
  std::ostream* out_;
};

}  // namespace xfl
