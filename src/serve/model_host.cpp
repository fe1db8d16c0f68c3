#include "serve/model_host.hpp"

#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xfl::serve {

ModelHost::ModelHost(std::shared_ptr<const core::TransferPredictor> initial,
                     std::string source_path)
    : predictor_(std::move(initial)), source_path_(std::move(source_path)) {
  XFL_EXPECTS(predictor_ != nullptr && predictor_->fitted());
}

ModelHost::Snapshot ModelHost::snapshot() const {
  std::lock_guard lock(mutex_);
  return {predictor_, version_};
}

std::uint64_t ModelHost::version() const {
  std::lock_guard lock(mutex_);
  return version_;
}

std::string ModelHost::source_path() const {
  std::lock_guard lock(mutex_);
  return source_path_;
}

std::uint64_t ModelHost::swap(
    std::shared_ptr<const core::TransferPredictor> next,
    std::uint64_t built_on) {
  XFL_EXPECTS(next != nullptr && next->fitted());
  std::lock_guard lock(mutex_);
  if (version_ != built_on) return 0;
  predictor_ = std::move(next);
  return ++version_;
}

std::uint64_t ModelHost::reload_from_file(const std::string& path) {
  XFL_SPAN("serve.reload");
  std::string target = path.empty() ? source_path() : path;
  if (target.empty())
    throw std::runtime_error(
        "ModelHost::reload_from_file: no model path configured");
  std::uint64_t published = 0;
  try {
    // The expensive part — parsing the file and recompiling the flat
    // ensembles — happens here with no lock held and the old model still
    // serving every in-flight batch.
    auto loaded = std::make_shared<const core::TransferPredictor>(
        core::TransferPredictor::load_file(target));
    std::lock_guard lock(mutex_);
    predictor_ = std::move(loaded);
    source_path_ = target;
    published = ++version_;
  } catch (const std::exception& error) {
    obs::counter("serve.reload.failed").add(1);
    XFL_LOG(warn) << "model reload failed" << obs::kv("path", target)
                  << obs::kv("what", error.what());
    throw;
  }
  obs::counter("serve.reload.count").add(1);
  XFL_LOG(info) << "model reloaded" << obs::kv("path", target)
                << obs::kv("version", published);
  return published;
}

}  // namespace xfl::serve
