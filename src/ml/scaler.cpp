#include "ml/scaler.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace xfl::ml {

void StandardScaler::fit(const Matrix& x) {
  XFL_EXPECTS(x.rows() >= 1);
  means_.assign(x.cols(), 0.0);
  sigmas_.assign(x.cols(), 1.0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const auto column = x.column(c);
    means_[c] = mean(column);
    const double sd = stddev(column);
    sigmas_[c] = sd > 0.0 ? sd : 1.0;
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  XFL_EXPECTS(fitted());
  XFL_EXPECTS(x.cols() == means_.size());
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c)
      out.at(r, c) = (x.at(r, c) - means_[c]) / sigmas_[c];
  return out;
}

Matrix StandardScaler::fit_transform(const Matrix& x) {
  fit(x);
  return transform(x);
}

}  // namespace xfl::ml
