#include "common/csv.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/log.hpp"

namespace xfl {

std::vector<CsvRow> read_csv(std::istream& in) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;
  char c;
  while (in.get(c)) {
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_has_content || !field.empty()) {
          row.push_back(std::move(field));
          field.clear();
          rows.push_back(std::move(row));
          row.clear();
        }
        row_has_content = false;
        break;
      default:
        field.push_back(c);
        row_has_content = true;
        break;
    }
  }
  if (in_quotes) throw std::runtime_error("read_csv: unterminated quoted field");
  if (row_has_content || !field.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<CsvRow> read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv_file: cannot open " + path);
  auto rows = read_csv(in);
  XFL_LOG(debug) << "csv file read" << obs::kv("path", path)
                 << obs::kv("rows", rows.size());
  return rows;
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

void CsvWriter::write_row(const CsvRow& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) *out_ << ',';
    *out_ << csv_escape(row[i]);
  }
  *out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& row) {
  std::string line;
  for (const double v : row) {
    if (!line.empty()) line += ',';
    append_number(line, v);
  }
  line += '\n';
  *out_ << line;
}

}  // namespace xfl
