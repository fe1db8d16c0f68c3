// Feature standardisation. §5 of the paper: "we normalize each input x_i to
// have zero mean and unit variance, setting x' = (x_i - mean) / sigma".
#pragma once

#include <vector>

#include "ml/matrix.hpp"

namespace xfl::ml {

/// Per-column zero-mean / unit-variance scaler. Columns with zero variance
/// are passed through centred only (sigma treated as 1).
class StandardScaler {
 public:
  /// Learn per-column mean and standard deviation. Requires rows >= 1.
  void fit(const Matrix& x);

  /// Apply the learnt transform. Requires fit() first with matching width.
  Matrix transform(const Matrix& x) const;

  /// fit() then transform().
  Matrix fit_transform(const Matrix& x);

  bool fitted() const { return !means_.empty(); }

 private:
  std::vector<double> means_;
  std::vector<double> sigmas_;
};

}  // namespace xfl::ml
