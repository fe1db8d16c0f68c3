#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "logs/log_store.hpp"

namespace xfl::logs {
namespace {

TransferRecord make_record(std::uint64_t id, endpoint::EndpointId src,
                           endpoint::EndpointId dst, double start, double end,
                           double bytes) {
  TransferRecord r;
  r.id = id;
  r.src = src;
  r.dst = dst;
  r.start_s = start;
  r.end_s = end;
  r.bytes = bytes;
  r.files = 10;
  r.dirs = 2;
  r.concurrency = 4;
  r.parallelism = 2;
  r.faults = 1;
  return r;
}

TEST(Record, RateAndDuration) {
  const auto r = make_record(1, 0, 1, 10.0, 20.0, 1000.0);
  EXPECT_DOUBLE_EQ(r.duration_s(), 10.0);
  EXPECT_DOUBLE_EQ(r.rate_Bps(), 100.0);
}

TEST(Record, RateRejectsZeroDuration) {
  auto r = make_record(1, 0, 1, 10.0, 10.0, 1000.0);
  EXPECT_THROW(r.rate_Bps(), xfl::ContractViolation);
}

TEST(Record, EffectiveProcessesAndStreams) {
  auto r = make_record(1, 0, 1, 0.0, 1.0, 1.0);
  r.concurrency = 8;
  r.parallelism = 4;
  r.files = 3;
  EXPECT_EQ(r.effective_processes(), 3u);
  EXPECT_EQ(r.effective_streams(), 12u);
  r.files = 100;
  EXPECT_EQ(r.effective_processes(), 8u);
  EXPECT_EQ(r.effective_streams(), 32u);
}

TEST(Record, ValidChecks) {
  EXPECT_TRUE(make_record(1, 0, 1, 0.0, 1.0, 1.0).valid());
  auto bad = make_record(1, 0, 1, 1.0, 1.0, 1.0);  // Zero duration.
  EXPECT_FALSE(bad.valid());
  auto bad2 = make_record(1, 0, 1, 0.0, 1.0, 1.0);
  bad2.files = 0;
  EXPECT_FALSE(bad2.valid());
}

TEST(LogStore, AppendAndIndex) {
  LogStore store;
  store.append(make_record(1, 0, 1, 0.0, 10.0, 100.0));
  store.append(make_record(2, 0, 1, 5.0, 15.0, 200.0));
  store.append(make_record(3, 1, 0, 0.0, 10.0, 300.0));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.edge_count({0, 1}), 2u);
  EXPECT_EQ(store.edge_count({1, 0}), 1u);
  EXPECT_EQ(store.edge_count({2, 3}), 0u);
}

TEST(LogStore, RejectsInvalidRecord) {
  LogStore store;
  EXPECT_THROW(store.append(make_record(1, 0, 1, 5.0, 5.0, 1.0)),
               xfl::ContractViolation);
}

TEST(LogStore, EdgesByUsageOrdersDescending) {
  LogStore store;
  store.append(make_record(1, 0, 1, 0.0, 1.0, 1.0));
  store.append(make_record(2, 0, 1, 0.0, 1.0, 1.0));
  store.append(make_record(3, 2, 3, 0.0, 1.0, 1.0));
  const auto edges = store.edges_by_usage();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (EdgeKey{0, 1}));
}

TEST(LogStore, EdgeTransfersSortedByStart) {
  LogStore store;
  store.append(make_record(1, 0, 1, 50.0, 60.0, 1.0));
  store.append(make_record(2, 0, 1, 10.0, 20.0, 1.0));
  store.append(make_record(3, 0, 1, 30.0, 40.0, 1.0));
  const auto idx = store.edge_transfers({0, 1});
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_LT(store[idx[0]].start_s, store[idx[1]].start_s);
  EXPECT_LT(store[idx[1]].start_s, store[idx[2]].start_s);
}

TEST(LogStore, EndpointTransfersIncludeBothDirections) {
  LogStore store;
  store.append(make_record(1, 0, 1, 0.0, 1.0, 1.0));
  store.append(make_record(2, 1, 2, 0.0, 1.0, 1.0));
  store.append(make_record(3, 2, 3, 0.0, 1.0, 1.0));
  EXPECT_EQ(store.endpoint_transfers(1).size(), 2u);
  EXPECT_EQ(store.endpoint_transfers(0).size(), 1u);
  EXPECT_EQ(store.endpoint_transfers(9).size(), 0u);
}

TEST(LogStore, EdgeMaxRate) {
  LogStore store;
  store.append(make_record(1, 0, 1, 0.0, 10.0, 100.0));   // 10 B/s
  store.append(make_record(2, 0, 1, 0.0, 10.0, 5000.0));  // 500 B/s
  EXPECT_DOUBLE_EQ(store.edge_max_rate({0, 1}), 500.0);
  EXPECT_THROW(store.edge_max_rate({5, 6}), xfl::ContractViolation);
}

TEST(LogStore, CsvRoundTripPreservesRecords) {
  LogStore store;
  auto r1 = make_record(1, 0, 1, 0.5, 10.25, 12345.0);
  r1.src_type = endpoint::EndpointType::kServer;
  r1.dst_type = endpoint::EndpointType::kPersonal;
  store.append(r1);
  store.append(make_record(2, 3, 2, 100.0, 228.5, 9.9e14));

  std::stringstream buffer;
  store.write_csv(buffer);
  const auto loaded = LogStore::read_csv(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].id, 1u);
  EXPECT_EQ(loaded[0].dst_type, endpoint::EndpointType::kPersonal);
  EXPECT_DOUBLE_EQ(loaded[0].start_s, 0.5);
  EXPECT_DOUBLE_EQ(loaded[1].bytes, 9.9e14);
  EXPECT_EQ(loaded[1].concurrency, 4u);
  EXPECT_EQ(loaded[1].faults, 1u);
}

TEST(LogStore, CsvRejectsMalformedRow) {
  std::stringstream buffer("id,src\n1,2\n");
  EXPECT_THROW(LogStore::read_csv(buffer), std::runtime_error);

  // A row whose numbers parse but do not make a transfer is refused with
  // an error that names it, not a precondition failure or a silent load.
  const std::string text =
      "id,src,dst,start_s,end_s,bytes,files,dirs,C,P,faults,src_type,"
      "dst_type\n1,0,1,0.5,10.25,12345,10,2,4,2,1,GCS,GCS\n";
  for (const char* row : {"2,0,1,10.25,0.5,12345,10,2,4,2,1,GCS,GCS\n",
                          "2,0,1,0.5,inf,12345,10,2,4,2,1,GCS,GCS\n",
                          "2,0,1,0.5,10.25,inf,10,2,4,2,1,GCS,GCS\n",
                          "2,0,1,-inf,10.25,12345,10,2,4,2,1,GCS,GCS\n",
                          "2,0,1,0.5,10.25,12345,10,2,0,2,1,GCS,GCS\n"}) {
    SCOPED_TRACE(row);
    std::stringstream bad(text + row);
    try {
      LogStore::read_csv(bad);
      ADD_FAILURE() << "row was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("row 2"), std::string::npos)
          << error.what();
    } catch (const std::exception& error) {
      ADD_FAILURE() << "not a runtime_error: " << error.what();
    }
  }
}

// The header must be the exact one write_csv writes: a log whose columns
// are swapped, or that has no header at all, would otherwise load with
// its values in the wrong fields or lose its first transfer. The error
// names the first column that differs.
TEST(LogStore, CsvRejectsAnyOtherHeader) {
  const std::string header =
      "id,src,dst,start_s,end_s,bytes,files,dirs,C,P,faults,src_type,"
      "dst_type\n";
  const std::string row = "1,0,1,0.5,10.25,12345,10,2,4,2,1,GCS,GCS\n";
  struct Case {
    std::string text;
    const char* expect;
  };
  const Case cases[] = {
      {"dst,src,id,start_s,end_s,bytes,files,dirs,C,P,faults,src_type,"
       "dst_type\n" + row,
       "header column 1 is 'dst', expected 'id'"},
      {row + row, "header column 1 is '1', expected 'id'"},
      {header.substr(0, header.size() - 10) + "\n" + row,
       "header column 13 is '', expected 'dst_type'"},
      {header.substr(0, header.size() - 1) + ",extra\n" + row,
       "header column 14 is 'extra', expected ''"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    std::stringstream buffer(c.text);
    try {
      LogStore::read_csv(buffer);
      ADD_FAILURE() << "header was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.expect), std::string::npos)
          << error.what();
    }
  }
  std::stringstream good(header + row);
  EXPECT_EQ(LogStore::read_csv(good).size(), 1u);
}

// Every numeric field is one whole number that fits its type: no silent
// truncation to a 32-bit endpoint, no wrap of a negative id, no prefix
// parse of "12abc"; an endpoint type is exactly GCS or GCP. The error
// names the row and the column.
TEST(LogStore, CsvRejectsNumbersThatDoNotFitTheirField) {
  LogStore store;
  store.append(make_record(1, 0, 1, 0.5, 10.25, 12345.0));
  std::stringstream good;
  store.write_csv(good);
  const std::string text = good.str();
  const std::string row = "1,0,1,0.5,10.25,12345,10,2,4,2,1,GCS,GCS\n";
  ASSERT_EQ(text.substr(text.find('\n') + 1), row);
  const std::string header = text.substr(0, text.find('\n') + 1);

  struct Case {
    std::string row;
    const char* column;
  };
  const Case cases[] = {
      {"1,4294967296,1,0.5,10.25,12345,10,2,4,2,1,GCS,GCS\n", "src"},
      {"-1,0,1,0.5,10.25,12345,10,2,4,2,1,GCS,GCS\n", "id"},
      {"1,0,1,0.5,10.25,12345,12abc,2,4,2,1,GCS,GCS\n", "files"},
      {"1,0,1,0.5,10.25,1.5xyz,10,2,4,2,1,GCS,GCS\n", "bytes"},
      {"1,0,1,0.5,10.25,12345,10,2,4,2,1,XYZ,GCS\n", "src_type"},
      {"1,0,1,0.5,10.25,12345,10,2,4,2,1,GCS,gcp\n", "dst_type"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.row);
    std::stringstream buffer(header + row + c.row);
    try {
      LogStore::read_csv(buffer);
      ADD_FAILURE() << "row was accepted";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("row 2"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("column '") + c.column + "'"),
                std::string::npos)
          << what;
    }
  }
}

TEST(LogStore, CsvEmptyStoreRoundTrips) {
  LogStore store;
  std::stringstream buffer;
  store.write_csv(buffer);
  const auto loaded = LogStore::read_csv(buffer);
  EXPECT_TRUE(loaded.empty());
}

}  // namespace
}  // namespace xfl::logs
