#include "common/csv.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace xfl {

CsvReader::CsvReader(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  text_ = std::move(text).str();
}

CsvReader CsvReader::open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("CsvReader: cannot open " + path);
  return CsvReader(in);
}

std::size_t CsvReader::rows_bound() const {
  const auto rest = std::string_view(text_).substr(pos_);
  const auto line_feeds = std::count(rest.begin(), rest.end(), '\n');
  return static_cast<std::size_t>(line_feeds) + 1;
}

// Fields are unescaped in place: the write cursor `out` never passes the
// read cursor `pos_`, because a field's text is never longer unescaped.
// text_ ends in '\0', so text[pos_] can be read at the end too.
bool CsvReader::next() {
  fields_.clear();
  char* const text = text_.data();
  std::size_t start = pos_;  // First byte of the field being built.
  std::size_t out = pos_;
  bool quoted = false;
  bool content = false;  // The row has a field, even an empty one.
  const auto end_field = [&] {
    fields_.emplace_back(text + start, out - start);
    start = out = pos_;
  };
  while (pos_ < text_.size()) {
    const char c = text[pos_++];
    if (c == '"' && quoted && text[pos_] == '"') {  // An escaped quote.
      text[out++] = text[pos_++];
    } else if (c == '"') {
      quoted = !quoted;
      content = true;
    } else if (quoted || (c != ',' && c != '\n' && c != '\r')) {
      text[out++] = c;
      content = true;
    } else if (c == ',') {
      end_field();
      content = true;
    } else if (c == '\n' && content) {
      end_field();
      return true;
    } else if (c == '\n') {
      start = out = pos_;  // Blank line.
    }
  }
  if (quoted) throw std::runtime_error("CsvReader: unterminated quoted field");
  if (content) end_field();
  return content;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

void CsvWriter::write_row(const CsvRow& row) {
  for (std::size_t i = 0; i < row.size(); ++i)
    *out_ << (i == 0 ? "" : ",") << csv_escape(row[i]);
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
