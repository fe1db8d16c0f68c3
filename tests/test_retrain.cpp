// Contracts for the closed-loop retrain subsystem (src/retrain):
//   - the training journal round-trips records bit for bit, rotates
//     segments crash-safely, bounds retention, and survives truncation
//     at EVERY byte offset plus arbitrary garbage (fuzz) — torn lines
//     are skipped, never fatal;
//   - the refit worker trains a candidate from journalled ground truth,
//     scores it on a held-out slice, swaps it in only when the windowed
//     MdAPE improves, and REJECTS a candidate that cannot beat the
//     incumbent — the old version keeps serving;
//   - ModelHost snapshots stay atomic under a reload storm (N swapping
//     threads racing M predicting threads);
//   - end to end over TCP: a simulated regime shift flows through the
//     live feedback path, raises the drift alarm, triggers a background
//     refit, passes the validation gate, hot-swaps a new model version,
//     and the new version's windowed MdAPE recovers below threshold.
// The suite carries the tier2-retrain label; check-retrain re-runs it
// under ThreadSanitizer and ASan+UBSan like the serve suites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "retrain/journal.hpp"
#include "retrain/retrainer.hpp"
#include "serve/client.hpp"
#include "serve/model_host.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

namespace xfl::retrain {
namespace {

const logs::LogStore& shared_log() {
  static const logs::LogStore log = [] {
    sim::EsnetConfig config;
    config.transfers = 1200;
    config.duration_s = 2.0 * 86400.0;
    config.seed = 17;
    return sim::make_esnet_testbed(config).run().log;
  }();
  return log;
}

std::shared_ptr<const core::TransferPredictor> shared_model() {
  static const auto predictor = [] {
    core::TransferPredictor::Options options;
    options.min_edge_transfers = 50;
    options.gbt.trees = 40;
    auto p = std::make_shared<core::TransferPredictor>(options);
    p->fit(shared_log());
    return p;
  }();
  return predictor;
}

/// Fresh empty journal directory per test.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "retrain_" + name + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// A deterministic non-trivial record (all fields populated, "ugly"
/// doubles so only lossless encoding round-trips).
JournalRecord sample_record(std::uint64_t i) {
  JournalRecord record;
  record.trace_id = 1000 + i;
  record.timestamp_ms = 1700000000000ull + i * 37;
  record.model_version = 1 + i % 3;
  record.transfer.src = static_cast<endpoint::EndpointId>(i % 5);
  record.transfer.dst = static_cast<endpoint::EndpointId>(1 + i % 7);
  record.transfer.bytes = (0.1 + static_cast<double>(i)) * 1e9 / 3.0;
  record.transfer.files = 1 + i * 13;
  record.transfer.dirs = 1 + i % 4;
  record.transfer.concurrency = static_cast<std::uint32_t>(1 + i % 8);
  record.transfer.parallelism = static_cast<std::uint32_t>(1 + i % 6);
  record.load.k_sout = 1.25e8 / (1.0 + static_cast<double>(i));
  record.load.k_sin = 3.0 * static_cast<double>(i);
  record.load.k_dout = 0.1 * static_cast<double>(i * i);
  record.load.k_din = 7.77e6;
  record.load.g_src = 1.5 + static_cast<double>(i % 3);
  record.load.g_dst = 0.25;
  record.load.s_sout = static_cast<double>(i) / 7.0;
  record.load.s_sin = 11.0;
  record.load.s_dout = 0.0;
  record.load.s_din = 2.5;
  record.predicted_mbps = 123.456 + static_cast<double>(i) / 9.0;
  record.observed_mbps = 98.7654321 * (1.0 + static_cast<double>(i % 5));
  return record;
}

void expect_records_equal(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.timestamp_ms, b.timestamp_ms);
  EXPECT_EQ(a.model_version, b.model_version);
  EXPECT_EQ(a.transfer.src, b.transfer.src);
  EXPECT_EQ(a.transfer.dst, b.transfer.dst);
  EXPECT_EQ(a.transfer.bytes, b.transfer.bytes);  // Bit-identical.
  EXPECT_EQ(a.transfer.files, b.transfer.files);
  EXPECT_EQ(a.transfer.dirs, b.transfer.dirs);
  EXPECT_EQ(a.transfer.concurrency, b.transfer.concurrency);
  EXPECT_EQ(a.transfer.parallelism, b.transfer.parallelism);
  EXPECT_EQ(a.load.k_sout, b.load.k_sout);
  EXPECT_EQ(a.load.k_sin, b.load.k_sin);
  EXPECT_EQ(a.load.k_dout, b.load.k_dout);
  EXPECT_EQ(a.load.k_din, b.load.k_din);
  EXPECT_EQ(a.load.g_src, b.load.g_src);
  EXPECT_EQ(a.load.g_dst, b.load.g_dst);
  EXPECT_EQ(a.load.s_sout, b.load.s_sout);
  EXPECT_EQ(a.load.s_sin, b.load.s_sin);
  EXPECT_EQ(a.load.s_dout, b.load.s_dout);
  EXPECT_EQ(a.load.s_din, b.load.s_din);
  EXPECT_EQ(a.predicted_mbps, b.predicted_mbps);
  EXPECT_EQ(a.observed_mbps, b.observed_mbps);
}

// -------------------------------------------------------------- journal

TEST(Journal, EncodeDecodeRoundTripsBitForBit) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const JournalRecord original = sample_record(i);
    const std::string line = encode_record(original);
    const auto decoded = decode_record(line);
    ASSERT_TRUE(decoded.has_value()) << line;
    expect_records_equal(original, *decoded);
    // Trailing newline/CR from file reads must not break decoding.
    EXPECT_TRUE(decode_record(line + "\n").has_value());
    EXPECT_TRUE(decode_record(line + "\r\n").has_value());
  }
}

TEST(Journal, EverySingleByteCorruptionIsDetected) {
  const std::string line = encode_record(sample_record(3));
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string corrupt = line;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_FALSE(decode_record(corrupt).has_value())
        << "byte " << i << " flip undetected: " << corrupt;
  }
  // Structural damage too: dropped token, extra token, wrong magic.
  EXPECT_FALSE(decode_record("").has_value());
  EXPECT_FALSE(decode_record("xflj1").has_value());
  EXPECT_FALSE(decode_record(line + " extra").has_value());
  EXPECT_FALSE(decode_record(line.substr(0, line.rfind(' '))).has_value());
}

TEST(Journal, AppendLoadRoundTripAndResume) {
  const std::string dir = fresh_dir("roundtrip");
  std::vector<JournalRecord> written;
  {
    TrainingJournal journal({dir});
    for (std::uint64_t i = 0; i < 10; ++i) {
      written.push_back(sample_record(i));
      journal.append(written.back());
    }
    EXPECT_EQ(journal.appended(), 10u);
    journal.flush();
  }
  // A second instance resumes the same directory instead of resetting it.
  {
    TrainingJournal journal({dir});
    for (std::uint64_t i = 10; i < 14; ++i) {
      written.push_back(sample_record(i));
      journal.append(written.back());
    }
  }
  const auto loaded = TrainingJournal::load(dir);
  EXPECT_EQ(loaded.lines_skipped, 0u);
  ASSERT_EQ(loaded.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i)
    expect_records_equal(written[i], loaded.records[i]);
}

TEST(Journal, StampsTimestampWhenUnset) {
  const std::string dir = fresh_dir("stamp");
  TrainingJournal journal({dir});
  JournalRecord record = sample_record(0);
  record.timestamp_ms = 0;
  journal.append(record);
  journal.flush();
  const auto loaded = TrainingJournal::load(dir);
  ASSERT_EQ(loaded.records.size(), 1u);
  // Stamped with a plausible wall clock (after 2023, the suite's floor).
  EXPECT_GT(loaded.records[0].timestamp_ms, 1600000000000ull);
}

TEST(Journal, RotatesSegmentsAndBoundsRetention) {
  const std::string dir = fresh_dir("rotate");
  TrainingJournal::Options options;
  options.directory = dir;
  options.max_segment_bytes = 1024;  // A few records per segment.
  options.max_segments = 3;
  TrainingJournal journal(options);

  constexpr std::uint64_t kRecords = 60;
  for (std::uint64_t i = 0; i < kRecords; ++i) journal.append(sample_record(i));
  EXPECT_EQ(journal.appended(), kRecords);
  EXPECT_LE(journal.segment_count(), options.max_segments);

  // On-disk state matches: at most max_segments segment files.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(entry.path().filename().string().starts_with("segment-"));
    ++files;
  }
  EXPECT_LE(files, options.max_segments);

  // Retention dropped the OLDEST records; the survivors are a suffix of
  // the append order and decode unchanged.
  const auto loaded = TrainingJournal::load(dir);
  EXPECT_EQ(loaded.lines_skipped, 0u);
  ASSERT_FALSE(loaded.records.empty());
  ASSERT_LT(loaded.records.size(), kRecords);
  const std::uint64_t first = loaded.records.front().trace_id - 1000;
  for (std::size_t i = 0; i < loaded.records.size(); ++i)
    expect_records_equal(sample_record(first + i), loaded.records[i]);
  EXPECT_EQ(loaded.records.back().trace_id, 1000 + kRecords - 1);
}

TEST(Journal, LoadBoundsToNewestMaxRecords) {
  const std::string dir = fresh_dir("bounded");
  TrainingJournal journal({dir});
  for (std::uint64_t i = 0; i < 12; ++i) journal.append(sample_record(i));
  journal.flush();
  const auto loaded = TrainingJournal::load(dir, /*max_records=*/5);
  ASSERT_EQ(loaded.records.size(), 5u);
  // The newest five, still oldest-first.
  for (std::size_t i = 0; i < 5; ++i)
    expect_records_equal(sample_record(7 + i), loaded.records[i]);
}

// ------------------------------------------------------------ journal fuzz

TEST(JournalFuzz, TruncationAtEveryByteOffsetLoadsCleanly) {
  // Build one healthy segment, then replay every possible torn-write
  // prefix of it: the loader must return exactly the fully-written lines
  // and count the torn tail as skipped — never throw, never misdecode.
  std::string segment;
  constexpr std::uint64_t kLines = 6;
  for (std::uint64_t i = 0; i < kLines; ++i)
    segment += encode_record(sample_record(i)) + "\n";

  const std::string dir = fresh_dir("truncate");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/segment-00000001.xflj";
  for (std::size_t cut = 0; cut <= segment.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out.write(segment.data(), static_cast<std::streamsize>(cut));
    }
    const auto loaded = TrainingJournal::load(dir);
    const std::string prefix = segment.substr(0, cut);
    const auto complete = static_cast<std::size_t>(
        std::count(prefix.begin(), prefix.end(), '\n'));
    const bool torn_tail = !prefix.empty() && prefix.back() != '\n';
    // A tail cut exactly at a line's content end (right before its '\n')
    // is a COMPLETE line — checksum-valid, so it must decode; any
    // shorter tear must be skipped, never misdecoded.
    const bool tail_complete =
        torn_tail && cut < segment.size() && segment[cut] == '\n';
    const std::size_t expected = complete + (tail_complete ? 1u : 0u);
    ASSERT_EQ(loaded.records.size(), expected) << "cut at " << cut;
    EXPECT_EQ(loaded.lines_skipped, torn_tail && !tail_complete ? 1u : 0u)
        << "cut at " << cut;
    for (std::size_t i = 0; i < expected; ++i)
      expect_records_equal(sample_record(i), loaded.records[i]);
  }
}

TEST(JournalFuzz, GarbageSegmentsNeverCrashTheLoader) {
  const std::string dir = fresh_dir("garbage");
  std::filesystem::create_directories(dir);
  Rng rng(99);
  // Pure random bytes (including newlines and NULs).
  {
    std::ofstream out(dir + "/segment-00000001.xflj", std::ios::binary);
    for (int i = 0; i < 4096; ++i)
      out.put(static_cast<char>(rng.uniform_int(0, 255)));
  }
  // Random printable lines with journal-ish shapes.
  {
    std::ofstream out(dir + "/segment-00000002.xflj", std::ios::binary);
    out << "xflj1\n" << "xflj1 1 2 3\n" << "xflj9 not a record\n"
        << std::string(3000, 'x') << "\n\n\n";
  }
  const auto loaded = TrainingJournal::load(dir);
  EXPECT_EQ(loaded.records.size(), 0u);
  EXPECT_EQ(loaded.segments_read, 2u);
  EXPECT_GT(loaded.lines_skipped, 0u);
}

TEST(JournalFuzz, ValidLinesSurviveInterleavedGarbage) {
  const std::string dir = fresh_dir("interleaved");
  std::filesystem::create_directories(dir);
  Rng rng(7);
  std::vector<JournalRecord> valid;
  {
    std::ofstream out(dir + "/segment-00000001.xflj", std::ios::binary);
    for (std::uint64_t i = 0; i < 8; ++i) {
      // A burst of garbage before every healthy line.
      std::string noise;
      const int n = static_cast<int>(rng.uniform_int(0, 40));
      for (int b = 0; b < n; ++b) {
        char c = static_cast<char>(rng.uniform_int(32, 126));
        noise.push_back(c);
      }
      out << noise << "\n";
      valid.push_back(sample_record(i));
      out << encode_record(valid.back()) << "\n";
    }
  }
  const auto loaded = TrainingJournal::load(dir);
  ASSERT_EQ(loaded.records.size(), valid.size());
  for (std::size_t i = 0; i < valid.size(); ++i)
    expect_records_equal(valid[i], loaded.records[i]);
}

// ------------------------------------------------------- refit worker

/// Planned-transfer mix on one edge with varied shapes, so a per-edge
/// GBT has real structure to learn.
std::vector<core::PlannedTransfer> edge_mix(endpoint::EndpointId src,
                                            endpoint::EndpointId dst) {
  std::vector<core::PlannedTransfer> mix;
  for (int i = 0; i < 12; ++i) {
    core::PlannedTransfer planned;
    planned.src = src;
    planned.dst = dst;
    planned.bytes = (1.0 + i) * 5.0 * kGB;
    planned.files = static_cast<std::uint64_t>(1 + i * 3);
    planned.dirs = static_cast<std::uint64_t>(1 + i % 4);
    planned.concurrency = static_cast<std::uint32_t>(1 + i % 8);
    planned.parallelism = static_cast<std::uint32_t>(1 + (i * 5) % 8);
    mix.push_back(planned);
  }
  return mix;
}

RetrainOptions fast_retrain_options() {
  RetrainOptions options;
  options.min_edge_records = 40;
  options.min_holdout = 8;
  options.holdout_fraction = 0.25;
  options.min_improvement_pct = 1.0;
  options.gbt.trees = 40;
  options.poll_ms = 20;
  return options;
}

TEST(RetrainWorker, RegimeShiftIsLearnedAndSwappedIn) {
  const std::string dir = fresh_dir("worker_accept");
  TrainingJournal journal({dir});
  serve::ModelHost host(shared_model());
  const auto initial = host.snapshot();

  // Regime shift: the world now delivers 45% of what the incumbent
  // predicts — a deterministic function of the features, so a refit can
  // learn it while the incumbent stays ~122% APE off.
  const auto mix = edge_mix(0, 1);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto& planned = mix[i % mix.size()];
    JournalRecord record;
    record.trace_id = i + 1;
    record.model_version = 1;
    record.transfer = planned;
    record.predicted_mbps = initial.predictor->predict_rate_mbps(planned);
    record.observed_mbps = 0.45 * record.predicted_mbps;
    journal.append(record);
  }

  RetrainWorker worker(host, journal, fast_retrain_options());
  const std::size_t swaps = worker.run_cycle(RetrainTrigger::kManual);
  EXPECT_EQ(swaps, 1u);
  EXPECT_EQ(host.version(), 2u);

  const auto status = worker.status();
  EXPECT_EQ(status.cycles, 1u);
  EXPECT_EQ(status.triggers_manual, 1u);
  EXPECT_EQ(status.accepted, 1u);
  EXPECT_EQ(status.rejected, 0u);
  EXPECT_EQ(status.last_decision, "accepted");
  EXPECT_EQ(status.last_edge, "0->1");
  EXPECT_EQ(status.last_version, 2u);
  EXPECT_LE(status.last_candidate_mdape_pct,
            status.last_incumbent_mdape_pct - 1.0);

  // The published model actually predicts the shifted regime.
  const auto swapped = host.snapshot();
  ASSERT_NE(swapped.predictor, initial.predictor);
  double mdape_num = 0.0;
  for (const auto& planned : mix) {
    const double truth = 0.45 * initial.predictor->predict_rate_mbps(planned);
    const double predicted = swapped.predictor->predict_rate_mbps(planned);
    mdape_num += std::abs(predicted - truth) / truth;
  }
  EXPECT_LT(mdape_num / static_cast<double>(mix.size()), 0.25);

  // The JSON status mirrors the struct (spliced into retrain-status).
  const std::string json = worker.status_json();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"accepted\":1"), std::string::npos);
  EXPECT_NE(json.find("\"last_decision\":\"accepted\""), std::string::npos);
}

// Two edges shift in one journal and one cycle accepts both refits: the
// second candidate is built on the version the first one published, so
// the final model serves both shifted regimes.
TEST(RetrainWorker, TwoShiftedEdgesBothKeepTheirRefits) {
  const std::string dir = fresh_dir("worker_two_edges");
  TrainingJournal journal({dir});
  serve::ModelHost host(shared_model());
  const auto initial = host.snapshot();

  const std::vector<std::vector<core::PlannedTransfer>> mixes = {
      edge_mix(0, 1), edge_mix(2, 3)};
  std::uint64_t trace_id = 0;
  for (std::uint64_t i = 0; i < 60; ++i)
    for (const auto& mix : mixes) {
      const auto& planned = mix[i % mix.size()];
      JournalRecord record;
      record.trace_id = ++trace_id;
      record.model_version = 1;
      record.transfer = planned;
      record.predicted_mbps = initial.predictor->predict_rate_mbps(planned);
      record.observed_mbps = 0.45 * record.predicted_mbps;
      journal.append(record);
    }

  RetrainWorker worker(host, journal, fast_retrain_options());
  EXPECT_EQ(worker.run_cycle(RetrainTrigger::kManual), 2u);
  EXPECT_EQ(host.version(), 3u);
  EXPECT_EQ(worker.status().accepted, 2u);

  const auto final_model = host.snapshot().predictor;
  for (const auto& mix : mixes) {
    SCOPED_TRACE(std::to_string(mix.front().src) + "->" +
                 std::to_string(mix.front().dst));
    double ape_sum = 0.0;
    for (const auto& planned : mix) {
      const double truth = 0.45 * initial.predictor->predict_rate_mbps(planned);
      const double predicted = final_model->predict_rate_mbps(planned);
      ape_sum += std::abs(predicted - truth) / truth;
    }
    EXPECT_LT(ape_sum / static_cast<double>(mix.size()), 0.25);
  }
}

TEST(RetrainWorker, WorseCandidateIsRejectedAndOldVersionKeepsServing) {
  const std::string dir = fresh_dir("worker_reject");
  TrainingJournal journal({dir});
  serve::ModelHost host(shared_model());
  const auto initial = host.snapshot();

  // Training slice (oldest 75%): pure noise, uncorrelated with features —
  // the candidate can only learn nonsense. Holdout slice (newest 25%):
  // exactly what the incumbent predicts, so the incumbent's holdout
  // MdAPE is 0 and NO candidate can clear the improvement gate.
  const auto mix = edge_mix(0, 1);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto& planned = mix[i % mix.size()];
    JournalRecord record;
    record.trace_id = i + 1;
    record.model_version = 1;
    record.transfer = planned;
    record.predicted_mbps = initial.predictor->predict_rate_mbps(planned);
    record.observed_mbps = i < 45 ? rng.uniform(50.0, 500.0)
                                  : record.predicted_mbps;
    journal.append(record);
  }

  RetrainWorker worker(host, journal, fast_retrain_options());
  const std::size_t swaps = worker.run_cycle(RetrainTrigger::kManual);
  EXPECT_EQ(swaps, 0u);

  // The gate held: no new version, the EXACT same predictor object still
  // serves, and the decision is recorded.
  EXPECT_EQ(host.version(), 1u);
  EXPECT_EQ(host.snapshot().predictor, initial.predictor);
  const auto status = worker.status();
  EXPECT_EQ(status.refits, 1u);
  EXPECT_EQ(status.accepted, 0u);
  EXPECT_EQ(status.rejected, 1u);
  EXPECT_EQ(status.last_decision, "rejected");
  EXPECT_EQ(status.last_incumbent_mdape_pct, 0.0);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Pins the accepted candidate's bytes for one cycle over a journal longer
// than the load window: 256 noise records are followed by 8192 shifted
// ones, so the digest moves if the window (newest 8192), the recency
// weights (8 halving every 256 records of age) or the holdout split
// change.
TEST(RetrainWorker, CycleOverLongJournalMatchesPinnedDigest) {
  const std::string dir = fresh_dir("worker_digest");
  TrainingJournal::Options journal_options{dir};
  journal_options.fsync_every = 0;
  TrainingJournal journal(journal_options);
  serve::ModelHost host(shared_model());
  const auto initial = host.snapshot();

  const auto mix = edge_mix(0, 1);
  std::vector<double> predicted(mix.size());
  for (std::size_t k = 0; k < mix.size(); ++k)
    predicted[k] = initial.predictor->predict_rate_mbps(mix[k]);
  Rng rng(23);
  for (std::uint64_t i = 0; i < 256 + 8192; ++i) {
    const std::size_t k = i % mix.size();
    JournalRecord record;
    record.trace_id = i + 1;
    record.timestamp_ms = 1700000000000ull + i;
    record.model_version = 1;
    record.transfer = mix[k];
    record.predicted_mbps = predicted[k];
    record.observed_mbps = i < 256 ? rng.uniform(50.0, 5000.0)
                                   : predicted[k] * rng.uniform(0.3, 0.6);
    journal.append(record);
  }

  RetrainWorker worker(host, journal, fast_retrain_options());
  ASSERT_EQ(worker.run_cycle(RetrainTrigger::kManual), 1u);
  std::ostringstream saved;
  host.snapshot().predictor->save(saved);
  const std::uint64_t digest = fnv1a(saved.str());
  EXPECT_EQ(digest, 0x794c452d81296882ULL) << "0x" << std::hex << digest;
}

TEST(RetrainWorker, SkipsEdgesWithTooLittleData) {
  const std::string dir = fresh_dir("worker_skip");
  TrainingJournal journal({dir});
  serve::ModelHost host(shared_model());
  const auto mix = edge_mix(2, 3);
  for (std::uint64_t i = 0; i < 10; ++i) {  // Below min_edge_records.
    JournalRecord record;
    record.trace_id = i + 1;
    record.transfer = mix[i % mix.size()];
    record.predicted_mbps = 100.0;
    record.observed_mbps = 50.0;
    journal.append(record);
  }
  RetrainWorker worker(host, journal, fast_retrain_options());
  EXPECT_EQ(worker.run_cycle(RetrainTrigger::kInterval), 0u);
  EXPECT_EQ(host.version(), 1u);
  const auto status = worker.status();
  EXPECT_EQ(status.skipped, 1u);
  EXPECT_EQ(status.refits, 0u);
  EXPECT_EQ(status.triggers_interval, 1u);
}

TEST(RetrainWorker, AlarmNudgeTriggersABackgroundCycle) {
  const std::string dir = fresh_dir("worker_alarm");
  TrainingJournal journal({dir});
  serve::ModelHost host(shared_model());
  auto options = fast_retrain_options();
  RetrainWorker worker(host, journal, options);
  worker.start();
  EXPECT_TRUE(worker.status().running);
  worker.on_alarm();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (worker.status().triggers_alarm == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  worker.stop();
  const auto status = worker.status();
  EXPECT_GE(status.triggers_alarm, 1u);
  EXPECT_GE(status.cycles, 1u);
  EXPECT_FALSE(status.running);
}

TEST(RetrainWorker, StarvedAlarmCycleRetriesUntilRecordsArrive) {
  // The drift alarm rises after drift_min_samples joins, which can be
  // BEFORE the journal holds min_edge_records — and the alarm is
  // edge-triggered, so it will not fire again while latched. A
  // data-starved alarm cycle must therefore re-arm itself and retry
  // until a cycle reaches a real gate decision, with no further nudges.
  const std::string dir = fresh_dir("worker_retry");
  TrainingJournal journal({dir});
  serve::ModelHost host(shared_model());
  const auto initial = host.snapshot();

  const auto mix = edge_mix(0, 1);
  const auto shifted_record = [&](std::uint64_t i) {
    JournalRecord record;
    record.trace_id = i + 1;
    record.model_version = 1;
    record.transfer = mix[i % mix.size()];
    record.predicted_mbps =
        initial.predictor->predict_rate_mbps(record.transfer);
    record.observed_mbps = 0.45 * record.predicted_mbps;
    return record;
  };
  for (std::uint64_t i = 0; i < 10; ++i) journal.append(shifted_record(i));

  auto options = fast_retrain_options();
  options.poll_ms = 10;
  options.alarm_retry_ms = 50;
  RetrainWorker worker(host, journal, options);
  worker.start();

  // The one and only alarm edge arrives while the journal is starved.
  // Wait on `skipped`, not `cycles`: skipped increments only AFTER the
  // cycle's journal load, so records appended from here on are
  // guaranteed invisible to the first cycle (cycles bumps at cycle
  // start, which under TSan can be long before the load finishes).
  worker.on_alarm();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (worker.status().skipped == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(worker.status().skipped, 1u);
  ASSERT_GE(worker.status().triggers_alarm, 1u);
  EXPECT_EQ(host.version(), 1u);  // Starved: nothing to refit yet.

  // Records keep flowing in; the retry — not a new alarm — must close
  // the loop once the edge clears min_edge_records.
  for (std::uint64_t i = 10; i < 60; ++i) journal.append(shifted_record(i));
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (host.version() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  worker.stop();

  EXPECT_GE(host.version(), 2u);
  const auto status = worker.status();
  EXPECT_GE(status.triggers_alarm, 2u);  // Original edge + retry cycles.
  EXPECT_GE(status.accepted, 1u);
  EXPECT_EQ(status.last_decision, "accepted");
}

// -------------------------------------------- model host reload storm

TEST(ModelHostStorm, SnapshotsStayAtomicUnderConcurrentReloads) {
  // N swapper threads publish prepared models through swap() while M
  // reader threads snapshot and predict. Atomicity contract: every
  // observed (version, predictor) pair is exactly one that was
  // published — a version never pairs with two different predictors,
  // readers never see versions go backwards, and every snapshot
  // predictor answers (no torn or destroyed model).
  constexpr std::size_t kSwappers = 4;
  constexpr std::size_t kSwapsEach = 12;
  constexpr std::size_t kReaders = 4;

  // Small predictor (global model only, few trees).
  core::TransferPredictor::Options options;
  options.min_edge_transfers = 1 << 20;
  options.gbt.trees = 5;
  auto base = std::make_shared<core::TransferPredictor>(options);
  base->fit(shared_log());

  // Copies built BEFORE the race so swap() is the only hot operation.
  std::vector<std::vector<std::shared_ptr<const core::TransferPredictor>>>
      prepared(kSwappers);
  for (auto& mine : prepared)
    for (std::size_t i = 0; i < kSwapsEach; ++i)
      mine.push_back(std::make_shared<const core::TransferPredictor>(*base));

  serve::ModelHost host(base);

  std::mutex published_mutex;
  std::map<std::uint64_t, const core::TransferPredictor*> published;
  published[1] = base.get();

  core::PlannedTransfer planned;
  planned.src = 0;
  planned.dst = 1;
  planned.bytes = 10.0 * kGB;

  std::atomic<bool> stop{false};
  struct Observation {
    std::uint64_t version;
    const core::TransferPredictor* predictor;
  };
  std::vector<std::vector<Observation>> observed(kReaders);

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r)
    readers.emplace_back([&host, &observed, &stop, &planned, r] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = host.snapshot();
        // Monotonic versions: a snapshot can never travel back in time.
        ASSERT_GE(snapshot.version, last);
        last = snapshot.version;
        ASSERT_NE(snapshot.predictor, nullptr);
        // The model behind the snapshot must be fully alive.
        ASSERT_GT(snapshot.predictor->predict_rate_mbps(planned), 0.0);
        observed[r].push_back({snapshot.version, snapshot.predictor.get()});
      }
    });

  std::vector<std::thread> swappers;
  for (std::size_t s = 0; s < kSwappers; ++s)
    swappers.emplace_back([&host, &prepared, &published, &published_mutex, s] {
      for (const auto& next : prepared[s]) {
        const core::TransferPredictor* raw = next.get();
        // A swap publishes only over the version it was built on; a
        // swapper that loses the race retries on the newer version.
        std::uint64_t version = 0;
        while (version == 0) version = host.swap(next, host.version());
        std::lock_guard lock(published_mutex);
        published[version] = raw;
      }
    });
  for (auto& thread : swappers) thread.join();
  stop.store(true);
  for (auto& thread : readers) thread.join();

  // Every swap got a unique version: initial + kSwappers * kSwapsEach.
  EXPECT_EQ(published.size(), 1 + kSwappers * kSwapsEach);
  EXPECT_EQ(host.version(), 1 + kSwappers * kSwapsEach);

  std::size_t total = 0;
  for (const auto& reader : observed) {
    total += reader.size();
    for (const auto& entry : reader) {
      const auto it = published.find(entry.version);
      ASSERT_NE(it, published.end())
          << "version " << entry.version << " was never published";
      EXPECT_EQ(it->second, entry.predictor)
          << "version " << entry.version
          << " observed with a different predictor than was published";
    }
  }
  EXPECT_GT(total, 0u);
}

// ------------------------------------------------------------ end to end

TEST(RetrainE2E, DriftAlarmTriggersValidatedHotReloadAndMdapeRecovers) {
  // The full loop over real TCP: accurate feedback, then a regime shift
  // (observed collapses to 45% of the ORIGINAL model's prediction,
  // independent of whatever is serving), the drift alarm rises after
  // enough joins — by which point the journal already holds a refittable
  // history — the alarm-triggered background cycle refits, the gate
  // accepts, and the swapped version's windowed MdAPE recovers.
  const std::string dir = fresh_dir("e2e_recover");

  serve::PredictionServer::Options server_options;
  server_options.monitor.drift_window = 64;
  server_options.monitor.drift_threshold_pct = 30.0;
  // The alarm may only rise once a refit is actually possible, so the
  // rising edge IS the trigger that performs the accepted swap.
  server_options.monitor.drift_min_samples = 48;

  serve::ModelHost host(shared_model());
  const auto frozen = host.snapshot().predictor;  // Ground-truth source.
  serve::PredictionServer server(host, server_options);
  RetrainService service(server, {dir}, fast_retrain_options());
  server.start();
  {
    serve::PredictionClient client("127.0.0.1", server.port());

    const auto mix = edge_mix(0, 1);
    // Regime shift through the live feedback path. APE vs the serving v1
    // model is ~122%, so the window breaches as soon as min_samples joins
    // accumulate; every join also lands one journal record.
    bool alarmed = false;
    for (int i = 0; i < 56 && !alarmed; ++i) {
      const auto& planned = mix[static_cast<std::size_t>(i) % mix.size()];
      const auto reply = client.predict(planned);
      ASSERT_TRUE(reply.ok);
      const double observed = 0.45 * frozen->predict_rate_mbps(planned);
      const auto feedback = client.feedback(reply.trace_id, observed);
      ASSERT_TRUE(feedback.matched);
      alarmed = feedback.alarm;
    }
    ASSERT_TRUE(alarmed) << "drift alarm never rose";

    // The alarm nudged the worker; wait for the validated swap.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (host.version() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(host.version(), 2u) << "refit never published a new version";

    // New version serves; its window must recover below threshold under
    // the same shifted ground truth.
    double last_mdape = 1e9;
    std::uint64_t v2_joins = 0;
    for (int i = 0; i < 64 && v2_joins < 16; ++i) {
      const auto& planned = mix[static_cast<std::size_t>(i) % mix.size()];
      const auto reply = client.predict(planned);
      ASSERT_TRUE(reply.ok);
      const double observed = 0.45 * frozen->predict_rate_mbps(planned);
      const auto feedback = client.feedback(reply.trace_id, observed);
      ASSERT_TRUE(feedback.matched);
      if (feedback.model_version >= 2) {
        ++v2_joins;
        last_mdape = feedback.mdape_pct;
        EXPECT_FALSE(feedback.alarm);
      }
    }
    ASSERT_GE(v2_joins, 16u) << "new version never served";
    EXPECT_LT(last_mdape, server_options.monitor.drift_threshold_pct);

    // retrain-status over the wire reports the loop that just closed.
    const auto status = client.retrain_status();
    EXPECT_TRUE(status.find("ok")->boolean);
    const auto* retrain = status.find("retrain");
    ASSERT_NE(retrain, nullptr);
    EXPECT_TRUE(retrain->find("enabled")->boolean);
    EXPECT_GE(retrain->find("triggers_alarm")->number, 1.0);
    EXPECT_GE(retrain->find("accepted")->number, 1.0);
    EXPECT_EQ(retrain->find("last_decision")->string, "accepted");
    // The journal on disk holds the ground truth the refit learned from.
    EXPECT_GT(service.journal().appended(), 48u);
  }
  server.stop();
}

TEST(RetrainE2E, JournalAppendFailureIsCountedAndServingContinues) {
  // Every append rotates (1-byte segments), and the journal directory is
  // replaced by a plain file after start-up, so each rotation's open
  // fails. The serve path drops the record, answers the feedback, and
  // counts the drop in retrain.journal.append_errors.
  const std::string dir = fresh_dir("append_fails");
  TrainingJournal::Options journal_options{dir};
  journal_options.max_segment_bytes = 1;

  serve::ModelHost host(shared_model());
  serve::PredictionServer server(host);
  RetrainService service(server, journal_options, fast_retrain_options());
  std::filesystem::remove_all(dir);
  std::ofstream(dir) << "not a directory\n";
  auto& drops = obs::counter("retrain.journal.append_errors");
  const auto drops_before = drops.value();

  server.start();
  {
    serve::PredictionClient client("127.0.0.1", server.port());
    const auto mix = edge_mix(0, 1);
    for (std::size_t i = 0; i < 3; ++i) {
      const auto reply = client.predict(mix[i]);
      ASSERT_TRUE(reply.ok);
      const auto feedback = client.feedback(reply.trace_id, 100.0);
      EXPECT_TRUE(feedback.matched);
    }
  }
  server.stop();
  EXPECT_EQ(drops.value() - drops_before, 3u);
  std::filesystem::remove(dir);
}

TEST(RetrainE2E, RetrainStatusWithoutServiceReportsDisabled) {
  serve::ModelHost host(shared_model());
  serve::PredictionServer server(host);
  server.start();
  {
    serve::PredictionClient client("127.0.0.1", server.port());
    const auto status = client.retrain_status();
    EXPECT_TRUE(status.find("ok")->boolean);
    const auto* retrain = status.find("retrain");
    ASSERT_NE(retrain, nullptr);
    EXPECT_FALSE(retrain->find("enabled")->boolean);
  }
  server.stop();
}

}  // namespace
}  // namespace xfl::retrain
