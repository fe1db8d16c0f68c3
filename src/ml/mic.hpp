// Maximal information coefficient (Reshef et al., "Detecting novel
// associations in large data sets", Science 2011), used by Table 5 of the
// paper to expose nonlinear feature-rate dependencies that the Pearson
// coefficient misses.
//
// MIC(x, y) = max over grids (a x b) with a*b <= B(n) of
//               I(x, y; grid) / log2(min(a, b)),
// with B(n) = n^alpha (alpha = 0.6 by default). We implement the ApproxMaxMI
// scheme of the MINE paper: for each candidate bin count q on one axis,
// equipartition that axis by frequency, then run a dynamic program over
// x-axis "clumps" to find the partition maximising mutual information; both
// axis orientations are searched and the best normalised value kept.
#pragma once

#include <cstddef>
#include <span>

namespace xfl::ml {

/// MIC estimator parameters.
struct MicOptions {
  double alpha = 0.6;  ///< Grid budget exponent: B = n^alpha.
  /// Computation is O(B^3)-ish; larger samples are deterministically
  /// down-sampled to this size first (0 = never down-sample).
  std::size_t max_samples = 1000;
};

/// Estimate MIC of two equal-length samples. Returns 0 when either sample
/// is constant or fewer than 4 points are available. Result lies in [0, 1].
double mic(std::span<const double> x, std::span<const double> y,
           const MicOptions& options = {});

}  // namespace xfl::ml
