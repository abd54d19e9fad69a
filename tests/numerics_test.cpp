#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>

#include "numerics/integration.hpp"
#include "numerics/interpolation.hpp"
#include "numerics/matrix.hpp"
#include "numerics/optimize.hpp"
#include "numerics/polynomial.hpp"
#include "numerics/simd.hpp"
#include "numerics/special_functions.hpp"

namespace wde {
namespace numerics {
namespace {

// ---------------------------------------------------------------- matrices

TEST(MatrixTest, ApplyMatchesManualProduct) {
  Matrix a(2, 3);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(0, 2) = 3.0;
  a.at(1, 0) = -1.0;
  a.at(1, 2) = 1.0;
  const std::vector<double> v{1.0, 1.0, 2.0};
  const std::vector<double> out = a.Apply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 9.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
}

TEST(MatrixTest, SolveRecoversKnownSolution) {
  Matrix a(3, 3);
  const double rows[3][3] = {{4, 1, 0}, {1, 3, -1}, {0, -1, 2}};
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) a.at(r, c) = rows[r][c];
  }
  const std::vector<double> x_true{1.0, -2.0, 0.5};
  const std::vector<double> b = a.Apply(x_true);
  Result<std::vector<double>> solved = SolveLinearSystem(a, b);
  ASSERT_TRUE(solved.ok());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR((*solved)[i], x_true[i], 1e-12);
}

TEST(MatrixTest, SolveDetectsSingularity) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  Result<std::vector<double>> solved = SolveLinearSystem(a, {1.0, 2.0});
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MatrixTest, SolveRejectsShapeMismatch) {
  Matrix a(2, 2);
  Result<std::vector<double>> solved = SolveLinearSystem(a, {1.0, 2.0, 3.0});
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixTest, UnitEigenvectorOfStochasticMatrix) {
  // Column-stochastic matrix transposed: rows sum to 1 -> A^T has eigenvalue 1.
  // Use a doubly structured example with known stationary vector.
  Matrix a(2, 2);
  a.at(0, 0) = 0.9;
  a.at(0, 1) = 0.2;
  a.at(1, 0) = 0.1;
  a.at(1, 1) = 0.8;
  Result<std::vector<double>> v = UnitEigenvector(a);
  ASSERT_TRUE(v.ok());
  // Stationary distribution of the chain: (2/3, 1/3).
  EXPECT_NEAR((*v)[0], 2.0 / 3.0, 1e-10);
  EXPECT_NEAR((*v)[1], 1.0 / 3.0, 1e-10);
}

TEST(MatrixTest, UnitEigenvectorFailsWithoutUnitEigenvalue) {
  Matrix a(2, 2);
  a.at(0, 0) = 0.5;
  a.at(1, 1) = 0.25;
  Result<std::vector<double>> v = UnitEigenvector(a);
  EXPECT_FALSE(v.ok());
}

// ------------------------------------------------------------- polynomials

TEST(PolynomialTest, MultiplyMatchesConvolution) {
  const std::vector<double> a{1.0, 1.0};         // 1 + x
  const std::vector<double> b{1.0, -1.0, 1.0};   // 1 - x + x^2
  const std::vector<double> prod = MultiplyPolynomials(a, b);  // 1 + x^3
  ASSERT_EQ(prod.size(), 4u);
  EXPECT_DOUBLE_EQ(prod[0], 1.0);
  EXPECT_NEAR(prod[1], 0.0, 1e-15);
  EXPECT_NEAR(prod[2], 0.0, 1e-15);
  EXPECT_DOUBLE_EQ(prod[3], 1.0);
}

TEST(PolynomialTest, RootsOfQuadratic) {
  // (x - 2)(x + 3) = x^2 + x - 6
  Result<std::vector<Complex>> roots =
      FindPolynomialRoots(std::vector<double>{-6.0, 1.0, 1.0});
  ASSERT_TRUE(roots.ok());
  ASSERT_EQ(roots->size(), 2u);
  std::vector<double> reals{(*roots)[0].real(), (*roots)[1].real()};
  std::sort(reals.begin(), reals.end());
  EXPECT_NEAR(reals[0], -3.0, 1e-10);
  EXPECT_NEAR(reals[1], 2.0, 1e-10);
  EXPECT_NEAR(std::abs((*roots)[0].imag()), 0.0, 1e-10);
}

TEST(PolynomialTest, ComplexConjugateRoots) {
  // x^2 + 1: roots ±i.
  Result<std::vector<Complex>> roots =
      FindPolynomialRoots(std::vector<double>{1.0, 0.0, 1.0});
  ASSERT_TRUE(roots.ok());
  ASSERT_EQ(roots->size(), 2u);
  for (const Complex& r : *roots) {
    EXPECT_NEAR(std::abs(r), 1.0, 1e-10);
    EXPECT_NEAR(std::fabs(r.imag()), 1.0, 1e-10);
  }
}

TEST(PolynomialTest, HighDegreeRootsResiduals) {
  // Wilkinson-lite: (x-1)(x-2)...(x-8) expanded by repeated multiplication.
  std::vector<double> poly{1.0};
  for (int r = 1; r <= 8; ++r) {
    poly = MultiplyPolynomials(poly, {-static_cast<double>(r), 1.0});
  }
  // Wilkinson-type polynomials are ill-conditioned; accept a looser
  // fixed-point tolerance than the default.
  Result<std::vector<Complex>> roots = FindPolynomialRoots(poly, 1e-10);
  ASSERT_TRUE(roots.ok());
  ASSERT_EQ(roots->size(), 8u);
  std::vector<Complex> cpoly(poly.size());
  for (size_t i = 0; i < poly.size(); ++i) cpoly[i] = Complex(poly[i], 0.0);
  for (const Complex& r : *roots) {
    EXPECT_LT(std::abs(EvaluatePolynomial(cpoly, r)), 1e-5);
  }
}

TEST(PolynomialTest, DegenerateInputs) {
  Result<std::vector<Complex>> none = FindPolynomialRoots(std::vector<double>{3.0});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// -------------------------------------------------------- special functions

TEST(SpecialFunctionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(NormalCdf(-1.959963984540054), 0.025, 1e-12);
}

TEST(SpecialFunctionsTest, BinomialCoefficients) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(20, 10), 184756.0);
}

// -------------------------------------------------------------- quadrature

TEST(IntegrationTest, TrapezoidExactForLinear) {
  std::vector<double> values{0.0, 1.0, 2.0, 3.0};
  EXPECT_NEAR(TrapezoidIntegral(values, 0.5), 2.25, 1e-15);
}

TEST(IntegrationTest, IntegrateFunctionSine) {
  EXPECT_NEAR(IntegrateFunction([](double x) { return std::sin(x); }, 0.0, M_PI, 512),
              2.0, 1e-10);
}

TEST(IntegrationTest, CumulativeTrapezoidEndpoints) {
  std::vector<double> values{1.0, 1.0, 1.0};
  const std::vector<double> cum = CumulativeTrapezoid(values, 0.5);
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_DOUBLE_EQ(cum[0], 0.0);
  EXPECT_DOUBLE_EQ(cum[1], 0.5);
  EXPECT_DOUBLE_EQ(cum[2], 1.0);
}

// -------------------------------------------------------------- prefix sums

TEST(PrefixSumTest, SequentialDefinition) {
  const std::vector<double> in{3.0, 1.0, 4.0, 1.0, 5.0};
  std::vector<double> out(in.size());
  const double total = PrefixSumExclusiveSequential(in, out);
  EXPECT_DOUBLE_EQ(total, 14.0);
  const std::vector<double> want{0.0, 3.0, 4.0, 8.0, 9.0};
  for (size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], want[i]);
}

TEST(PrefixSumTest, BlockedBitIdenticalToSequentialOnIntegerCounts) {
  // The production input: histogram bucket counts — integer-valued doubles
  // whose running sums stay far below 2^53, where any association is exact.
  // Sizes straddle the block width (8) and include the empty/tiny edges.
  uint64_t state = 0x2545F4914F6CDD1DULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 255u, 256u, 1000u}) {
    std::vector<double> in(n);
    for (double& v : in) v = static_cast<double>(next() % 100000);
    std::vector<double> seq(n), blocked(n);
    const double total_seq = PrefixSumExclusiveSequential(in, seq);
    const double total_blocked = PrefixSumExclusiveBlocked(in, blocked);
    EXPECT_EQ(total_blocked, total_seq) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(blocked[i], seq[i]) << "n=" << n << " i=" << i;
    }
  }
}

// ------------------------------------------------------------ interpolation

TEST(InterpolationTest, ExactAtNodesLinearBetween) {
  UniformGridInterpolator interp(1.0, 0.5, {0.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(interp.Evaluate(1.0), 0.0);
  EXPECT_DOUBLE_EQ(interp.Evaluate(1.5), 1.0);
  EXPECT_DOUBLE_EQ(interp.Evaluate(2.0), 0.0);
  EXPECT_DOUBLE_EQ(interp.Evaluate(1.25), 0.5);
  EXPECT_DOUBLE_EQ(interp.Evaluate(1.75), 0.5);
}

TEST(InterpolationTest, ZeroOutsideSpan) {
  UniformGridInterpolator interp(0.0, 1.0, {5.0, 5.0});
  EXPECT_DOUBLE_EQ(interp.Evaluate(-0.01), 0.0);
  EXPECT_DOUBLE_EQ(interp.Evaluate(1.01), 0.0);
  EXPECT_DOUBLE_EQ(interp.x1(), 1.0);
}

// ---------------------------------------------------------------- optimize

TEST(OptimizeTest, GoldenSectionFindsParabolaMinimum) {
  const double x = GoldenSectionMinimize(
      [](double t) { return (t - 2.0) * (t - 2.0) + 1.0; }, 0.0, 5.0, 1e-10);
  EXPECT_NEAR(x, 2.0, 1e-7);
}

TEST(OptimizeTest, GridThenGoldenHandlesMultimodal) {
  // sin(3t) has minima near t = π/2 + 2πk/3; the quadratic tilt makes the
  // one near t ≈ 3.67 global. A plain golden-section from [0, 8] would land
  // in a wrong basin; the grid stage must escape it.
  const auto f = [](double t) {
    return std::sin(3.0 * t) + 0.05 * (t - 4.5) * (t - 4.5);
  };
  const double x = GridThenGoldenMinimize(f, 0.0, 8.0, 64, 1e-10);
  EXPECT_NEAR(x, 3.665, 0.05);
}

TEST(OptimizeTest, BisectMonotoneInvertsCdfLikeFunction) {
  const double x = BisectMonotone([](double t) { return t * t; }, 0.25, 0.0, 1.0);
  EXPECT_NEAR(x, 0.5, 1e-10);
}

}  // namespace
}  // namespace numerics
}  // namespace wde
