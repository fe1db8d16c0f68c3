// Regression error metrics. The paper's headline metric is MdAPE — the
// median absolute percentage error — plus percentile errors (95th in the
// LMT study) and per-edge error distributions (Fig. 10 violins).
#pragma once

#include <span>
#include <vector>

#include "common/stats.hpp"

namespace xfl::ml {

/// Absolute percentage errors |y - yhat| / |y| * 100 per sample. Samples
/// where the error is undefined are skipped, never emitted as NaN/inf:
///   * y == 0 (percentage of nothing; rate is strictly positive in
///     practice), and
///   * non-finite y or yhat (a NaN in the sample would otherwise poison
///     every downstream sort/percentile — comparing NaN breaks the strict
///     weak ordering std::sort requires).
/// Empty input yields an empty vector. Requires equal sizes.
std::vector<double> absolute_percentage_errors(std::span<const double> y,
                                               std::span<const double> yhat);

/// Median absolute percentage error, in percent. A single usable sample is
/// its own median. Requires >= 1 usable sample (ContractViolation
/// otherwise — e.g. empty input, or every target zero / non-finite).
double mdape(std::span<const double> y, std::span<const double> yhat);

/// p-th percentile of the absolute percentage error, in percent. Same
/// usable-sample requirement as mdape().
double percentile_ape(std::span<const double> y, std::span<const double> yhat,
                      double p);

/// Root mean squared error. No skipping: every sample participates (a
/// non-finite sample yields a non-finite RMSE). Requires non-empty input.
double rmse(std::span<const double> y, std::span<const double> yhat);

/// Distribution summary of the absolute percentage errors (Fig. 10 rows).
/// Same usable-sample requirement as mdape().
xfl::DistributionSummary ape_summary(std::span<const double> y,
                                     std::span<const double> yhat);

}  // namespace xfl::ml
