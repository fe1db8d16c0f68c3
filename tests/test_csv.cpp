#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"

namespace xfl {
namespace {

std::vector<CsvRow> parse(const std::string& text) {
  std::istringstream in(text);
  CsvReader csv(in);
  std::vector<CsvRow> rows;
  while (csv.next()) rows.emplace_back(csv.row().begin(), csv.row().end());
  return rows;
}

TEST(Csv, ParsesSimpleRows) {
  const auto rows = parse("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "2", "3"}));
}

TEST(Csv, HandlesMissingTrailingNewline) {
  const auto rows = parse("a,b\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"1", "2"}));
}

TEST(Csv, HandlesQuotedCommasAndNewlines) {
  const auto rows = parse("\"a,b\",\"line1\nline2\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "line1\nline2");
}

TEST(Csv, HandlesEscapedQuotes) {
  const auto rows = parse("\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(Csv, ToleratesCrlf) {
  const auto rows = parse("a,b\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
}

TEST(Csv, EmptyFieldsPreserved) {
  const auto rows = parse("a,,c\n,,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"", "", ""}));
}

TEST(Csv, ThrowsOnUnterminatedQuote) {
  EXPECT_THROW(parse("\"oops\n"), std::runtime_error);
}

TEST(Csv, EscapePassesPlainFieldsThrough) {
  EXPECT_EQ(csv_escape("plain"), "plain");
}

TEST(Csv, EscapeQuotesSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WriterRoundTrips) {
  std::ostringstream out;
  CsvWriter writer(out);
  const CsvRow original = {"plain", "a,b", "say \"hi\"", "two\nlines", ""};
  writer.write_row(original);
  const auto rows = parse(out.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], original);
}

/// Seeded rows of 1-6 fields drawn from an alphabet of CSV's special bytes
/// (comma, quote, CR, LF, NUL) and plain ones, empty fields included. A row
/// of one empty field writes a blank line, which a reader skips like any
/// blank line, so such a row gets a second field.
std::vector<CsvRow> random_rows(std::uint64_t seed, std::size_t count) {
  static constexpr char kAlphabet[] = {',', '"', '\r', '\n',
                                       '\0', 'a', 'Z', ' '};
  Rng rng(seed);
  std::vector<CsvRow> rows(count);
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (auto& field : row) {
      const auto length = rng.uniform_int(0, 8);
      for (std::int64_t i = 0; i < length; ++i)
        field.push_back(kAlphabet[rng.uniform_int(0, sizeof kAlphabet - 1)]);
    }
    if (row.size() == 1 && row[0].empty()) row.emplace_back("x");
  }
  return rows;
}

std::string write_rows(const std::vector<CsvRow>& rows) {
  std::ostringstream out;
  CsvWriter writer(out);
  for (const auto& row : rows) writer.write_row(row);
  return out.str();
}

// The in-place unescape gives back every field byte for byte, with rows
// read many to a document.
TEST(Csv, RandomRowsRoundTripByteForByte) {
  const auto rows = random_rows(23, 2000);
  for (std::size_t first = 0; first < rows.size(); first += 40) {
    const std::vector<CsvRow> document(rows.begin() + first,
                                       rows.begin() + first + 40);
    EXPECT_EQ(parse(write_rows(document)), document) << "rows from " << first;
  }
}

// Every prefix of a document either throws std::runtime_error (it ends
// inside a quoted field) or yields rows: all but the last as written, the
// last possibly cut short.
TEST(Csv, EveryTruncationThrowsOrYieldsRows) {
  const auto rows = random_rows(29, 60);
  const std::string text = write_rows(rows);
  std::size_t threw = 0;
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    std::vector<CsvRow> got;
    try {
      got = parse(text.substr(0, cut));
    } catch (const std::runtime_error&) {
      ++threw;
      continue;
    }
    ASSERT_LE(got.size(), rows.size()) << "cut at " << cut;
    for (std::size_t r = 0; r + 1 < got.size(); ++r)
      ASSERT_EQ(got[r], rows[r]) << "cut at " << cut << ", row " << r;
  }
  EXPECT_GT(threw, 0u);
  EXPECT_EQ(parse(text), rows);
}

TEST(Csv, WriterRoundTripsDoublesExactly) {
  std::ostringstream out;
  CsvWriter writer(out);
  const std::vector<double> values = {1.0 / 3.0, 1e-300, 2.5e17, -0.0};
  writer.write_row(values);
  const auto rows = parse(out.str());
  ASSERT_EQ(rows.size(), 1u);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_DOUBLE_EQ(std::stod(rows[0][i]), values[i]);
}

TEST(Csv, ReadFileThrowsForMissingPath) {
  EXPECT_THROW(CsvReader::open("/nonexistent/path/file.csv"),
               std::runtime_error);
}

// --- Fuzz-ish malformed inputs: error (or defined output), never crash ---

TEST(Csv, UnterminatedQuoteVariantsThrow) {
  EXPECT_THROW(parse("\""), std::runtime_error);           // Lone quote.
  EXPECT_THROW(parse("a,b,\"c"), std::runtime_error);      // Open at EOF.
  EXPECT_THROW(parse("\"a\"\"b\n"), std::runtime_error);   // Escaped, then open.
  EXPECT_THROW(parse("a,\"b\nc,d\ne,f"), std::runtime_error);  // Swallows rest.
}

TEST(Csv, RaggedColumnsParsePerRow) {
  // Width validation is the caller's job; the parser reports what it saw.
  const auto rows = parse("a,b,c\n1\nx,y\n");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[1].size(), 1u);
  EXPECT_EQ(rows[2].size(), 2u);
}

TEST(Csv, EmbeddedNulBytesPreserved) {
  const std::string text{"a\0b,c\n", 6};
  const auto rows = parse(text);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], (std::string{"a\0b", 3}));
  EXPECT_EQ(rows[0][1], "c");
}

TEST(Csv, CrlfInsideQuotesPreserved) {
  // Outside quotes '\r' is eaten (CRLF tolerance); inside quotes it is
  // data and survives verbatim.
  const auto rows = parse("\"line1\r\nline2\",x\r\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\r\nline2");
  EXPECT_EQ(rows[0][1], "x");
}

TEST(Csv, QuoteOpeningMidFieldParsesDeterministically) {
  // Not valid RFC 4180, but must not crash: the quote opens a quoted run
  // that appends to the field in progress.
  const auto rows = parse("a\"b,c\"d,e\n");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], "ab,cd");
  EXPECT_EQ(rows[0][1], "e");
}

TEST(Csv, BinaryGarbageDoesNotCrash) {
  std::string garbage;
  for (int i = 0; i < 512; ++i)
    garbage.push_back(static_cast<char>((i * 131 + 17) % 256));
  try {
    const auto rows = parse(garbage);
    for (const auto& row : rows) EXPECT_FALSE(row.empty());
  } catch (const std::runtime_error&) {
    // Unterminated-quote rejection is an acceptable outcome too.
  }
}

}  // namespace
}  // namespace xfl
