#include "retrain/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "common/number.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace xfl::retrain {
namespace {

// One metrics resolution per process; appends then write lock-free.
struct JournalMetrics {
  obs::Counter& appended = obs::counter("retrain.journal.appended");
  obs::Counter& rotations = obs::counter("retrain.journal.rotations");
  obs::Counter& unlink_errors = obs::counter("retrain.journal.unlink_errors");
  obs::Counter& unreadable = obs::counter("retrain.journal.unreadable_segments");
  obs::Gauge& segments = obs::gauge("retrain.journal.segments");
  obs::Gauge& bytes = obs::gauge("retrain.journal.bytes");
};

JournalMetrics& journal_metrics() {
  static JournalMetrics metrics;
  return metrics;
}

constexpr std::string_view kMagic = "xflj1";
constexpr std::string_view kSegmentSuffix = ".xflj";
constexpr std::string_view kSegmentPrefix = "segment-";

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string segment_name(std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof name, "segment-%08" PRIu64 ".xflj", seq);
  return name;
}

/// Parse "segment-NNNNNNNN.xflj" back to its sequence number.
std::optional<std::uint64_t> parse_segment_name(std::string_view name) {
  if (!name.starts_with(kSegmentPrefix) || !name.ends_with(kSegmentSuffix))
    return std::nullopt;
  const std::string_view digits = name.substr(
      kSegmentPrefix.size(),
      name.size() - kSegmentPrefix.size() - kSegmentSuffix.size());
  std::uint64_t seq = 0;
  if (!parse_number(digits, seq)) return std::nullopt;
  return seq;
}

bool parse_hex64(std::string_view token, std::uint64_t& out) {
  if (token.empty() || token.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9')
      digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return false;
    value = (value << 4) | digit;
  }
  out = value;
  return true;
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string encode_record(const JournalRecord& record) {
  std::string line{kMagic};
  const auto& t = record.transfer;
  const auto& l = record.load;
  const auto fields = [&line](auto... v) {
    ((line += ' ', append_number(line, v)), ...);
  };
  fields(record.trace_id, record.timestamp_ms, record.model_version, t.src,
         t.dst, t.bytes, t.files, t.dirs, t.concurrency, t.parallelism,
         l.k_sout, l.k_sin, l.k_dout, l.k_din, l.g_src, l.g_dst, l.s_sout,
         l.s_sin, l.s_dout, l.s_din, record.predicted_mbps,
         record.observed_mbps);
  char checksum[24];
  std::snprintf(checksum, sizeof checksum, " %016" PRIx64, fnv1a64(line));
  line += checksum;
  return line;
}

std::optional<JournalRecord> decode_record(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.remove_suffix(1);
  // The checksum is the last token and covers the line before the space
  // in front of it: exactly what encode_record hashed.
  const std::size_t cut = line.rfind(' ');
  std::uint64_t stored = 0;
  if (cut == std::string_view::npos ||
      !parse_hex64(line.substr(cut + 1), stored) ||
      fnv1a64(line.substr(0, cut)) != stored)
    return std::nullopt;

  TokenReader in(line.substr(0, cut));
  JournalRecord record;
  auto& t = record.transfer;
  auto& l = record.load;
  if (in.token() != kMagic ||
      !in.read(record.trace_id, record.timestamp_ms, record.model_version,
               t.src, t.dst, t.bytes, t.files, t.dirs, t.concurrency,
               t.parallelism, l.k_sout, l.k_sin, l.k_dout, l.k_din, l.g_src,
               l.g_dst, l.s_sout, l.s_sin, l.s_dout, l.s_din,
               record.predicted_mbps, record.observed_mbps) ||
      !in.token().empty())
    return std::nullopt;
  return record;
}

TrainingJournal::TrainingJournal(Options options)
    : options_(std::move(options)) {
  XFL_EXPECTS(!options_.directory.empty());
  XFL_EXPECTS(options_.max_segment_bytes > 0);
  XFL_EXPECTS(options_.max_segments >= 1);
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec)
    throw std::runtime_error("TrainingJournal: cannot create '" +
                             options_.directory + "': " + ec.message());

  // Resume: adopt existing segments in sequence order and append to the
  // newest (a restart continues the journal, it does not reset it).
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto seq = parse_segment_name(entry.path().filename().string()))
      segments_.push_back(*seq);
  }
  std::sort(segments_.begin(), segments_.end());
  if (segments_.empty()) {
    segments_.push_back(1);
  } else {
    const std::uintmax_t size = std::filesystem::file_size(
        std::filesystem::path(options_.directory) /
            segment_name(segments_.back()),
        ec);
    active_bytes_ = ec ? 0 : static_cast<std::size_t>(size);
  }
  active_seq_ = segments_.back();
  std::lock_guard lock(mutex_);
  open_active_locked();
  journal_metrics().segments.set(static_cast<double>(segments_.size()));
}

TrainingJournal::~TrainingJournal() {
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void TrainingJournal::open_active_locked() {
  const std::string path = (std::filesystem::path(options_.directory) /
                            segment_name(active_seq_))
                               .string();
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw std::runtime_error("TrainingJournal: cannot open '" + path +
                             "': " + std::strerror(errno));
}

void TrainingJournal::sync_active_locked() {
  if (fd_ >= 0) ::fsync(fd_);
  since_sync_ = 0;
}

void TrainingJournal::rotate_locked() {
  sync_active_locked();
  ::close(fd_);
  fd_ = -1;
  ++active_seq_;
  segments_.push_back(active_seq_);
  active_bytes_ = 0;
  open_active_locked();
  journal_metrics().rotations.add(1);

  // Bounded retention: drop the oldest segments beyond the cap. An
  // unlink failure only delays reclamation, so it is logged, not fatal.
  while (segments_.size() > options_.max_segments) {
    const std::string victim = (std::filesystem::path(options_.directory) /
                                segment_name(segments_.front()))
                                   .string();
    if (::unlink(victim.c_str()) != 0 && errno != ENOENT) {
      journal_metrics().unlink_errors.add(1);
      XFL_LOG(warn) << "training journal retention unlink failed"
                    << obs::kv("path", victim)
                    << obs::kv("errno", std::strerror(errno));
    }
    segments_.erase(segments_.begin());
  }
  journal_metrics().segments.set(static_cast<double>(segments_.size()));
  XFL_LOG(debug) << "training journal rotated"
                 << obs::kv("segment", active_seq_)
                 << obs::kv("segments", segments_.size());
}

void TrainingJournal::append(const JournalRecord& record) {
  std::string line;
  if (record.timestamp_ms == 0) {
    JournalRecord stamped = record;
    stamped.timestamp_ms = now_ms();
    line = encode_record(stamped);
  } else {
    line = encode_record(record);
  }
  line.push_back('\n');

  std::lock_guard lock(mutex_);
  XFL_EXPECTS(fd_ >= 0);
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("TrainingJournal: write: ") +
                               std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  active_bytes_ += line.size();
  ++appended_;
  ++since_sync_;
  journal_metrics().appended.add(1);
  journal_metrics().bytes.set(static_cast<double>(active_bytes_));
  if (options_.fsync_every > 0 && since_sync_ >= options_.fsync_every)
    sync_active_locked();
  if (active_bytes_ >= options_.max_segment_bytes) rotate_locked();
}

void TrainingJournal::flush() {
  std::lock_guard lock(mutex_);
  sync_active_locked();
}

std::uint64_t TrainingJournal::appended() const {
  std::lock_guard lock(mutex_);
  return appended_;
}

std::size_t TrainingJournal::segment_count() const {
  std::lock_guard lock(mutex_);
  return segments_.size();
}

TrainingJournal::LoadResult TrainingJournal::load(const std::string& directory,
                                                  std::size_t max_records) {
  LoadResult result;
  std::error_code ec;
  std::vector<std::uint64_t> sequence;
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto seq = parse_segment_name(entry.path().filename().string()))
      sequence.push_back(*seq);
  }
  std::sort(sequence.begin(), sequence.end());

  for (const std::uint64_t seq : sequence) {
    const std::string path =
        (std::filesystem::path(directory) / segment_name(seq)).string();
    std::ifstream in(path);
    if (!in) {
      // Unreadable segment: evidence lost, refit continues on the rest.
      journal_metrics().unreadable.add(1);
      XFL_LOG(warn) << "training journal segment unreadable"
                    << obs::kv("path", path);
      continue;
    }
    ++result.segments_read;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (auto record = decode_record(line))
        result.records.push_back(*record);
      else
        ++result.lines_skipped;
    }
  }

  if (max_records > 0 && result.records.size() > max_records)
    result.records.erase(result.records.begin(),
                         result.records.end() -
                             static_cast<std::ptrdiff_t>(max_records));
  return result;
}

}  // namespace xfl::retrain
