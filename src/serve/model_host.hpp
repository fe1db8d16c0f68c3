// Holds the resident TransferPredictor behind the serving hot path and
// implements atomic hot reload: a replacement model is loaded from disk
// off the hot path (caller's thread), then swapped in with one
// shared_ptr exchange under a mutex. Batches that already snapshotted
// the old model finish on it — no request ever observes a torn or
// half-loaded predictor — and the old model is destroyed when the last
// in-flight batch drops its reference. A failed reload throws and leaves
// the current model serving.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/predictor.hpp"

namespace xfl::serve {

class ModelHost {
 public:
  /// The predictor a batch runs against plus the version it was published
  /// under; both are captured under one lock so they always agree.
  struct Snapshot {
    std::shared_ptr<const core::TransferPredictor> predictor;
    std::uint64_t version = 0;
  };

  /// `source_path` is the default target for path-less reloads (the file
  /// the model was loaded from); empty disables them.
  explicit ModelHost(std::shared_ptr<const core::TransferPredictor> initial,
                     std::string source_path = "");

  Snapshot snapshot() const;
  std::uint64_t version() const;
  std::string source_path() const;

  /// Publish an already-built predictor that was built on the version
  /// `built_on`; returns the new version. If another swap or a reload
  /// published since, `next` would undo it: nothing is published and 0 is
  /// returned.
  std::uint64_t swap(std::shared_ptr<const core::TransferPredictor> next,
                     std::uint64_t built_on);

  /// Load `path` (empty = source_path()) off the hot path and publish it.
  /// On success the path becomes the new default reload target and the
  /// new version is returned; on failure an exception propagates and the
  /// old model keeps serving, version unchanged.
  std::uint64_t reload_from_file(const std::string& path = "");

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const core::TransferPredictor> predictor_;
  std::uint64_t version_ = 1;
  std::string source_path_;
};

}  // namespace xfl::serve
