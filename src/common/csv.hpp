// CSV for transfer logs and derived datasets, quoted per RFC 4180. CsvReader
// is the one parser: it reads a document into one buffer and yields each row
// as string_views into it, unescaping quoted fields in place. Callers check
// the shape; LogStore::read_csv requires its exact header. The paper's
// dataset is CSV, so simulated logs can be exported and re-imported.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/number.hpp"

namespace xfl {

/// One CSV row to write.
using CsvRow = std::vector<std::string>;

/// Reads CSV rows of any width, skipping blank lines and, outside quotes,
/// '\r'. Not copyable: the fields point into the reader's own buffer.
class CsvReader {
 public:
  /// Reads all of `in` into the reader's buffer.
  explicit CsvReader(std::istream& in);
  /// Reads the file at `path`. Throws std::runtime_error if unreadable.
  static CsvReader open(const std::string& path);

  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;

  /// Advances to the next row; false at the end of the document. Throws
  /// std::runtime_error on an unterminated quoted field.
  bool next();

  /// The current row: the span lasts until next(), its views as long as
  /// the reader.
  std::span<const std::string_view> row() const { return fields_; }

  /// At most this many rows remain: one per line feed left, plus a last
  /// unterminated line. Readers reserve by it.
  std::size_t rows_bound() const;

 private:
  std::string text_;
  std::size_t pos_ = 0;
  std::vector<std::string_view> fields_;
};

/// Escape a single field per RFC 4180 (quote only when necessary).
std::string csv_escape(const std::string& field);

/// Parse a numeric CSV field with the number codec (common/number.hpp).
/// Throws std::runtime_error naming `where`, the row and the column when
/// the field is not one whole number that fits T.
template <class T>
void parse_csv_field(std::string_view field, T& out, std::string_view where,
                     std::size_t row, std::string_view column) {
  if (!parse_number(field, out))
    throw std::runtime_error(std::string(where) + ": bad number '" +
                             std::string(field) + "' in row " +
                             std::to_string(row) + ", column '" +
                             std::string(column) + "'");
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
