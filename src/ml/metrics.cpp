#include "ml/metrics.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace xfl::ml {

std::vector<double> absolute_percentage_errors(std::span<const double> y,
                                               std::span<const double> yhat) {
  XFL_EXPECTS(y.size() == yhat.size());
  std::vector<double> errors;
  errors.reserve(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0) continue;
    if (!std::isfinite(y[i]) || !std::isfinite(yhat[i])) continue;
    errors.push_back(std::fabs(y[i] - yhat[i]) / std::fabs(y[i]) * 100.0);
  }
  return errors;
}

double mdape(std::span<const double> y, std::span<const double> yhat) {
  const auto errors = absolute_percentage_errors(y, yhat);
  XFL_EXPECTS(!errors.empty());
  return median(errors);
}

double percentile_ape(std::span<const double> y, std::span<const double> yhat,
                      double p) {
  const auto errors = absolute_percentage_errors(y, yhat);
  XFL_EXPECTS(!errors.empty());
  return percentile(errors, p);
}

double rmse(std::span<const double> y, std::span<const double> yhat) {
  XFL_EXPECTS(y.size() == yhat.size() && !y.empty());
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double err = y[i] - yhat[i];
    sum_sq += err * err;
  }
  return std::sqrt(sum_sq / static_cast<double>(y.size()));
}

xfl::DistributionSummary ape_summary(std::span<const double> y,
                                     std::span<const double> yhat) {
  const auto errors = absolute_percentage_errors(y, yhat);
  XFL_EXPECTS(!errors.empty());
  return summarize(errors);
}

}  // namespace xfl::ml
