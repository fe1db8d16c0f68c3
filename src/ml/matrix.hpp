// Dense row-major matrix, sized for regression problems of this library
// (tens of thousands of rows, tens of columns). Deliberately minimal: the
// ML substrate needs storage, views, and a QR least-squares solver, not a
// full BLAS.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/mapped_vector.hpp"

namespace xfl::ml {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialised rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Contiguous view of one row.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  /// Copy of one column.
  std::vector<double> column(std::size_t c) const;

  /// Append a row (must match cols(); sets cols on the first row).
  void push_row(std::span<const double> values);

  /// Room for `rows` rows of `cols` values, so push_row appends without
  /// reallocating.
  void reserve(std::size_t rows, std::size_t cols) {
    data_.reserve(rows * cols);
  }

  /// New matrix keeping only the columns flagged true in `keep`
  /// (keep.size() == cols()).
  Matrix select_columns(const std::vector<bool>& keep) const;

  /// New matrix keeping only the listed rows.
  Matrix select_rows(const std::vector<std::size_t>& indices) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// Mapped when large, so a freed dataset leaves nothing resident.
  MappedVector<double> data_;
};

/// Solve min ||A x - b||_2 by Householder QR with column pivoting disabled
/// (A is expected well-conditioned after standardisation; a tiny ridge is
/// added on rank deficiency). Requires A.rows() >= A.cols() >= 1 and
/// b.size() == A.rows(). Returns x of size A.cols().
std::vector<double> solve_least_squares(const Matrix& a,
                                        std::span<const double> b);

}  // namespace xfl::ml
