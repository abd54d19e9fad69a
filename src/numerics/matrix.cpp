#include "numerics/matrix.hpp"

#include <cmath>

#include "util/string_util.hpp"

namespace wde {
namespace numerics {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::operator-(const Matrix& other) const {
  WDE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] - other.data_[i];
  return out;
}

std::vector<double> Matrix::Apply(const std::vector<double>& v) const {
  WDE_CHECK_EQ(cols_, v.size(), "matrix-vector shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += at(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Result<std::vector<double>> SolveLinearSystem(Matrix a, std::vector<double> b) {
  const size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem requires square A and matching b");
  }
  // Forward elimination with partial pivoting.
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    double best = std::fabs(a.at(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double cand = std::fabs(a.at(r, col));
      if (cand > best) {
        best = cand;
        pivot = r;
      }
    }
    if (best < 1e-13) {
      return Status::FailedPrecondition(
          Format("singular system (pivot %zu has magnitude %.3e)", col, best));
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a.at(col, c), a.at(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a.at(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a.at(r, col) * inv;
      if (factor == 0.0) continue;
      a.at(r, col) = 0.0;
      for (size_t c = col + 1; c < n; ++c) a.at(r, c) -= factor * a.at(col, c);
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= a.at(ri, c) * x[c];
    x[ri] = acc / a.at(ri, ri);
  }
  return x;
}

Result<std::vector<double>> UnitEigenvector(const Matrix& a) {
  const size_t n = a.rows();
  if (a.cols() != n || n == 0) {
    return Status::InvalidArgument("UnitEigenvector requires a non-empty square matrix");
  }
  // (A - I) v = 0 with one equation replaced by the normalization sum(v) = 1.
  // Try replacing each row in turn until the system is solvable; the system
  // has a one-dimensional nullspace for proper refinement matrices, so some
  // replacement must succeed.
  for (size_t replace = 0; replace < n; ++replace) {
    Matrix m = a - Matrix::Identity(n);
    std::vector<double> rhs(n, 0.0);
    for (size_t c = 0; c < n; ++c) m.at(replace, c) = 1.0;
    rhs[replace] = 1.0;
    Result<std::vector<double>> solved = SolveLinearSystem(m, rhs);
    if (!solved.ok()) continue;
    // Verify the residual of the eigen equation on the solution.
    const std::vector<double>& v = solved.value();
    std::vector<double> av = a.Apply(v);
    double residual = 0.0;
    for (size_t i = 0; i < n; ++i) residual = std::max(residual, std::fabs(av[i] - v[i]));
    if (residual < 1e-8) return solved;
  }
  return Status::FailedPrecondition("matrix has no eigenvector for eigenvalue 1");
}

}  // namespace numerics
}  // namespace wde
