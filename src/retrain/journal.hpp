// Durable training journal for the serve path's closed loop. Every
// matched prediction/feedback join becomes one JournalRecord — trace id,
// the planned transfer, the competing-load features, predicted and
// observed rate, serving model version, wall-clock timestamp — appended
// to an on-disk segment so the retrain worker can refit per-edge models
// from live ground truth long after the in-memory monitor window has
// rolled over (and across process restarts).
//
// Format: line-oriented text, one record per line:
//
//   xflj1 <22 space-separated fields> <fnv1a-64 checksum, hex>
//
// The checksum covers everything before it, so a torn tail write (crash
// mid-append), a flipped byte, or interleaved garbage is detected per
// line and skipped by the tolerant loader — a journal is evidence, never
// a single point of failure. Durability is segmented: the active segment
// is an O_APPEND fd fsync'd every `fsync_every` records and always at
// rotation; rotation caps segments at `max_segment_bytes` and retention
// unlinks the oldest beyond `max_segments`, bounding disk usage.
//
// append() locks one mutex (called from the server's poll thread at
// feedback rate — orders of magnitude below contention that would need
// sharding); load() is lock-free over immutable closed segments plus
// whatever prefix of the active segment has been written.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.hpp"
#include "features/contention.hpp"

namespace xfl::retrain {

/// One joined prediction/feedback observation, as persisted.
struct JournalRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t timestamp_ms = 0;  ///< Wall clock; 0 = stamped at append.
  std::uint64_t model_version = 0;
  core::PlannedTransfer transfer;
  features::ContentionFeatures load;
  double predicted_mbps = 0.0;
  double observed_mbps = 0.0;
};

/// Encode one record as one journal line (no trailing newline). Numbers
/// go through the number codec (common/number.hpp), so a loaded record
/// predicts bit-identically.
std::string encode_record(const JournalRecord& record);

/// Decode one line. Any malformation — wrong magic, wrong field count,
/// a number the codec rejects or a non-finite double, checksum mismatch —
/// yields nullopt, never throws.
std::optional<JournalRecord> decode_record(std::string_view line);

/// Append-only, crash-tolerant, bounded-retention record log.
class TrainingJournal {
 public:
  struct Options {
    std::string directory;  ///< Created (with parents) if absent.
    /// Rotate the active segment once it exceeds this many bytes.
    std::size_t max_segment_bytes = 1 << 20;
    /// Segments kept on disk, the active one included; older segments
    /// are unlinked at rotation (bounded retention).
    std::size_t max_segments = 8;
    /// fsync the active segment every N appends (0 = only at rotation).
    std::size_t fsync_every = 64;
  };

  struct LoadResult {
    std::vector<JournalRecord> records;  ///< Oldest first.
    std::size_t segments_read = 0;
    std::size_t lines_skipped = 0;  ///< Torn/garbage lines survived.
  };

  /// Opens (resuming) or creates the journal directory. Throws
  /// std::runtime_error when the directory cannot be created or the
  /// active segment cannot be opened.
  explicit TrainingJournal(Options options);
  ~TrainingJournal();

  TrainingJournal(const TrainingJournal&) = delete;
  TrainingJournal& operator=(const TrainingJournal&) = delete;

  /// Durably append one record (stamping timestamp_ms when 0). Throws on
  /// write failure — a journal that silently drops ground truth would
  /// poison every later refit.
  void append(const JournalRecord& record);

  /// fsync the active segment now (the retrain worker calls this before
  /// loading, so records journalled a moment ago are refit candidates).
  void flush();

  std::uint64_t appended() const;
  std::size_t segment_count() const;
  const Options& options() const { return options_; }

  /// Read every surviving record, oldest first. Tolerant by contract:
  /// unreadable segments and undecodable lines are counted and skipped,
  /// never fatal. `max_records` > 0 keeps only the newest that many.
  static LoadResult load(const std::string& directory,
                         std::size_t max_records = 0);

 private:
  void open_active_locked();   ///< Caller holds mutex_.
  void rotate_locked();        ///< Caller holds mutex_.
  void sync_active_locked();   ///< Caller holds mutex_.

  Options options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::uint64_t active_seq_ = 0;
  std::size_t active_bytes_ = 0;
  std::uint64_t appended_ = 0;
  std::size_t since_sync_ = 0;
  std::vector<std::uint64_t> segments_;  ///< Ascending seq, active last.
};

}  // namespace xfl::retrain
