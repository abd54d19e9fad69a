#include "daubechies_lagarias.hpp"

#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace wde {
namespace wavelet {
namespace {

constexpr double kSqrt2 = 1.4142135623730951;

}  // namespace

DaubechiesLagariasEvaluator::DaubechiesLagariasEvaluator(const WaveletFilter& filter,
                                                         int digits)
    : filter_(filter), digits_(digits), dim_(filter.length() - 1) {
  WDE_CHECK_GE(digits_, 8);
  const std::vector<double>& h = filter_.h();
  a0_.assign(static_cast<size_t>(dim_ * dim_), 0.0);
  a1_.assign(static_cast<size_t>(dim_ * dim_), 0.0);
  // From the refinement equation, with V(x) = (φ(x), φ(x+1), ..., φ(x+L−2))
  // for x in [0,1): V(x) = A_d V(2x − d) where
  // (A_0)_{ij} = √2 h_{2i−j}, (A_1)_{ij} = √2 h_{2i+1−j}.
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      const int k0 = 2 * i - j;
      const int k1 = 2 * i + 1 - j;
      if (k0 >= 0 && k0 < filter_.length()) {
        a0_[static_cast<size_t>(i * dim_ + j)] = kSqrt2 * h[static_cast<size_t>(k0)];
      }
      if (k1 >= 0 && k1 < filter_.length()) {
        a1_[static_cast<size_t>(i * dim_ + j)] = kSqrt2 * h[static_cast<size_t>(k1)];
      }
    }
  }
}

void DaubechiesLagariasEvaluator::PhiVector(double t, std::vector<double>* values) const {
  WDE_CHECK(t >= 0.0 && t < 1.0);
  // Accumulate P = A_{d1} A_{d2} ... A_{dm}; the product converges to a
  // matrix with constant rows whose i-th row value is φ(t + i).
  std::vector<double> prod(static_cast<size_t>(dim_ * dim_), 0.0);
  for (int i = 0; i < dim_; ++i) prod[static_cast<size_t>(i * dim_ + i)] = 1.0;
  std::vector<double> next(static_cast<size_t>(dim_ * dim_), 0.0);
  double frac = t;
  for (int step = 0; step < digits_; ++step) {
    frac *= 2.0;
    int digit = frac >= 1.0 ? 1 : 0;
    if (digit == 1) frac -= 1.0;
    const std::vector<double>& a = (digit == 1) ? a1_ : a0_;
    for (int i = 0; i < dim_; ++i) {
      for (int j = 0; j < dim_; ++j) {
        double acc = 0.0;
        for (int k = 0; k < dim_; ++k) {
          acc += prod[static_cast<size_t>(i * dim_ + k)] *
                 a[static_cast<size_t>(k * dim_ + j)];
        }
        next[static_cast<size_t>(i * dim_ + j)] = acc;
      }
    }
    prod.swap(next);
  }
  values->assign(static_cast<size_t>(dim_), 0.0);
  for (int i = 0; i < dim_; ++i) {
    double acc = 0.0;
    for (int j = 0; j < dim_; ++j) acc += prod[static_cast<size_t>(i * dim_ + j)];
    (*values)[static_cast<size_t>(i)] = acc / static_cast<double>(dim_);
  }
}

double DaubechiesLagariasEvaluator::Phi(double x) const {
  if (x <= 0.0 || x >= static_cast<double>(filter_.support_length())) {
    // Haar's φ(0) = 1 is the one discontinuous edge case worth honoring.
    if (filter_.length() == 2 && x == 0.0) return 1.0;
    return 0.0;
  }
  const double floor_x = std::floor(x);
  const int offset = static_cast<int>(floor_x);
  std::vector<double> values;
  PhiVector(x - floor_x, &values);
  if (offset < 0 || offset >= dim_) return 0.0;
  return values[static_cast<size_t>(offset)];
}

double DaubechiesLagariasEvaluator::Psi(double x) const {
  if (x < 0.0 || x > static_cast<double>(filter_.support_length())) return 0.0;
  const std::vector<double>& g = filter_.g();
  double acc = 0.0;
  for (int k = 0; k < filter_.length(); ++k) {
    acc += g[static_cast<size_t>(k)] * Phi(2.0 * x - static_cast<double>(k));
  }
  return kSqrt2 * acc;
}

}  // namespace wavelet
}  // namespace wde
