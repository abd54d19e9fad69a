#ifndef WDE_NUMERICS_MATRIX_HPP_
#define WDE_NUMERICS_MATRIX_HPP_

#include <cstddef>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace numerics {

/// Small dense row-major matrix of doubles. Sized for the library's needs
/// (refinement/transfer matrices of wavelet filters, ~20x20); not a general
/// BLAS replacement.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& at(size_t r, size_t c) {
    WDE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    WDE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix operator-(const Matrix& other) const;

  /// Matrix-vector product.
  std::vector<double> Apply(const std::vector<double>& v) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Fails with InvalidArgument on shape mismatch and FailedPrecondition on a
/// (numerically) singular system.
Result<std::vector<double>> SolveLinearSystem(Matrix a, std::vector<double> b);

/// Finds v with A v = v and sum(v) = 1 (the eigenvector for eigenvalue 1,
/// normalized to unit coefficient sum). Used for scaling-function values at
/// integers. Fails if 1 is not an eigenvalue (within tolerance).
Result<std::vector<double>> UnitEigenvector(const Matrix& a);

}  // namespace numerics
}  // namespace wde

#endif  // WDE_NUMERICS_MATRIX_HPP_
