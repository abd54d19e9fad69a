#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "daubechies_lagarias.hpp"
#include "numerics/integration.hpp"
#include "stats/rng.hpp"
#include "util/string_util.hpp"
#include "wavelet/cascade.hpp"
#include "wavelet/dwt.hpp"
#include "wavelet/filter.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace wavelet {
namespace {

constexpr double kSqrt2 = 1.4142135623730951;

struct FilterSpec {
  std::string family;  // "db" or "sym"
  int moments;
};

WaveletFilter MakeFilter(const FilterSpec& spec) {
  Result<WaveletFilter> f = spec.family == "db"
                                ? WaveletFilter::Daubechies(spec.moments)
                                : WaveletFilter::Symmlet(spec.moments);
  WDE_CHECK(f.ok(), "filter construction failed in test setup");
  return *f;
}

std::string SpecName(const testing::TestParamInfo<FilterSpec>& info) {
  return info.param.family + std::to_string(info.param.moments);
}

// ------------------------------------------------------ parameterized sweep

class FilterSweepTest : public testing::TestWithParam<FilterSpec> {};

TEST_P(FilterSweepTest, LengthAndName) {
  const WaveletFilter f = MakeFilter(GetParam());
  EXPECT_EQ(f.length(), 2 * GetParam().moments);
  EXPECT_EQ(f.vanishing_moments(), GetParam().moments);
  EXPECT_EQ(f.support_length(), f.length() - 1);
}

TEST_P(FilterSweepTest, CoefficientSumIsSqrt2) {
  const WaveletFilter f = MakeFilter(GetParam());
  double sum = 0.0;
  for (double h : f.h()) sum += h;
  EXPECT_NEAR(sum, kSqrt2, 1e-12);
}

TEST_P(FilterSweepTest, CqfOrthonormality) {
  const WaveletFilter f = MakeFilter(GetParam());
  EXPECT_LT(f.OrthonormalityDefect(), 1e-9);
}

TEST_P(FilterSweepTest, HighpassHasVanishingMoments) {
  const WaveletFilter f = MakeFilter(GetParam());
  // Σ_k g_k k^m = 0 for m < N (discrete moments; tolerance grows with m).
  for (int m = 0; m < f.vanishing_moments(); ++m) {
    double acc = 0.0;
    for (int k = 0; k < f.length(); ++k) {
      acc += f.g()[static_cast<size_t>(k)] * std::pow(static_cast<double>(k), m);
    }
    EXPECT_NEAR(acc, 0.0, 1e-6 * std::pow(10.0, m / 2.0)) << "moment " << m;
  }
}

TEST_P(FilterSweepTest, HighpassIsOrthogonalToLowpass) {
  const WaveletFilter f = MakeFilter(GetParam());
  for (int m = -f.length() / 2; m <= f.length() / 2; ++m) {
    double acc = 0.0;
    for (int k = 0; k < f.length(); ++k) {
      const int shifted = k + 2 * m;
      if (shifted < 0 || shifted >= f.length()) continue;
      acc += f.h()[static_cast<size_t>(k)] * f.g()[static_cast<size_t>(shifted)];
    }
    EXPECT_NEAR(acc, 0.0, 1e-10) << "shift " << m;
  }
}

TEST_P(FilterSweepTest, CascadeTablesSatisfyMassAndNorm) {
  const WaveletFilter f = MakeFilter(GetParam());
  Result<CascadeTables> tables = ComputeCascadeTables(f, 10);
  ASSERT_TRUE(tables.ok());
  const double dx = tables->dx();
  EXPECT_NEAR(numerics::TrapezoidIntegral(tables->phi, dx), 1.0, 1e-6);
  EXPECT_NEAR(numerics::TrapezoidIntegral(tables->psi, dx), 0.0, 1e-6);
  double phi2 = 0.0, psi2 = 0.0;
  for (double v : tables->phi) phi2 += v * v;
  for (double v : tables->psi) psi2 += v * v;
  EXPECT_NEAR(phi2 * dx, 1.0, 2e-3);
  EXPECT_NEAR(psi2 * dx, 1.0, 2e-3);
}

TEST_P(FilterSweepTest, PartitionOfUnity) {
  const WaveletFilter f = MakeFilter(GetParam());
  Result<WaveletBasis> basis = WaveletBasis::Create(f, 10);
  ASSERT_TRUE(basis.ok());
  // Σ_k φ(x − k) = 1 for all x.
  for (double x : {0.1, 0.37, 0.5, 0.73, 0.99}) {
    double acc = 0.0;
    for (int k = -f.length(); k <= f.length(); ++k) {
      acc += basis->Phi(x - static_cast<double>(k));
    }
    EXPECT_NEAR(acc, 1.0, 2e-4) << "x=" << x;
  }
}

TEST_P(FilterSweepTest, DaubechiesLagariasAgreesWithCascade) {
  const WaveletFilter f = MakeFilter(GetParam());
  Result<WaveletBasis> basis = WaveletBasis::Create(f, 12);
  ASSERT_TRUE(basis.ok());
  const DaubechiesLagariasEvaluator dl(f);
  double max_diff = 0.0;
  const double hi = static_cast<double>(f.support_length());
  for (double x = 0.013; x < hi; x += hi / 57.0) {
    max_diff = std::max(max_diff, std::fabs(dl.Phi(x) - basis->Phi(x)));
    max_diff = std::max(max_diff, std::fabs(dl.Psi(x) - basis->Psi(x)));
  }
  // The table error is interpolation-bound: db2's φ is only ~Hölder-0.55
  // regular, so its tables are an order rougher than the smoother filters'.
  const double tolerance = GetParam().moments == 2 ? 5e-3 : 5e-5;
  EXPECT_LT(max_diff, tolerance);
}

TEST_P(FilterSweepTest, TranslateOrthonormalityByQuadrature) {
  const WaveletFilter f = MakeFilter(GetParam());
  Result<WaveletBasis> basis = WaveletBasis::Create(f, 12);
  ASSERT_TRUE(basis.ok());
  // <φ(·), φ(· − m)> = δ_{m0} and <φ, ψ(· − m)> = 0 by numeric quadrature.
  const double hi = static_cast<double>(f.support_length());
  const int points = 1 << 13;
  const double dx = (hi + 3.0) / points;
  for (int m : {0, 1, 2}) {
    double pp = 0.0, pw = 0.0;
    for (int i = 0; i <= points; ++i) {
      const double x = -1.0 + dx * i;
      pp += basis->Phi(x) * basis->Phi(x - m);
      pw += basis->Phi(x) * basis->Psi(x - m);
    }
    EXPECT_NEAR(pp * dx, m == 0 ? 1.0 : 0.0, 3e-3) << "m=" << m;
    EXPECT_NEAR(pw * dx, 0.0, 3e-3) << "m=" << m;
  }
}

TEST_P(FilterSweepTest, DwtPerfectReconstructionAndParseval) {
  const WaveletFilter f = MakeFilter(GetParam());
  stats::Rng rng(7);
  std::vector<double> signal(128);
  for (double& s : signal) s = rng.Gaussian();
  Result<DwtCoefficients> coeffs = ForwardDwt(f, signal, 3);
  ASSERT_TRUE(coeffs.ok());
  // Parseval: energy preserved by the orthonormal transform.
  double energy_in = 0.0, energy_out = 0.0;
  for (double s : signal) energy_in += s * s;
  for (double a : coeffs->approximation) energy_out += a * a;
  for (const auto& level : coeffs->details) {
    for (double d : level) energy_out += d * d;
  }
  EXPECT_NEAR(energy_in, energy_out, 1e-8 * energy_in);

  Result<std::vector<double>> rec = InverseDwt(f, *coeffs);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->size(), signal.size());
  for (size_t i = 0; i < signal.size(); ++i) EXPECT_NEAR((*rec)[i], signal[i], 1e-10);
}

TEST_P(FilterSweepTest, AntiderivativeMatchesCumulativeQuadrature) {
  const WaveletFilter f = MakeFilter(GetParam());
  Result<WaveletBasis> basis = WaveletBasis::Create(f, 12);
  ASSERT_TRUE(basis.ok());
  const double hi = static_cast<double>(f.support_length());
  EXPECT_NEAR(basis->PhiAntiderivative(hi), 1.0, 1e-6);
  EXPECT_NEAR(basis->PsiAntiderivative(hi), 0.0, 1e-6);
  // Midpoint consistency: numeric integral of the table equals the stored one.
  const double x_mid = hi * 0.4;
  const double direct = numerics::IntegrateFunction(
      [&](double x) { return basis->Phi(x); }, 0.0, x_mid, 4096);
  EXPECT_NEAR(basis->PhiAntiderivative(x_mid), direct, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllFilters, FilterSweepTest,
                         testing::Values(FilterSpec{"db", 2}, FilterSpec{"db", 3},
                                         FilterSpec{"db", 4}, FilterSpec{"db", 5},
                                         FilterSpec{"db", 6}, FilterSpec{"db", 8},
                                         FilterSpec{"db", 10}, FilterSpec{"sym", 4},
                                         FilterSpec{"sym", 6}, FilterSpec{"sym", 8},
                                         FilterSpec{"sym", 10}),
                         SpecName);

// --------------------------------------------------------- specific checks

TEST(FilterTest, HaarIsExact) {
  const WaveletFilter haar = WaveletFilter::Haar();
  EXPECT_EQ(haar.length(), 2);
  EXPECT_NEAR(haar.h()[0], 1.0 / kSqrt2, 1e-15);
  EXPECT_NEAR(haar.h()[1], 1.0 / kSqrt2, 1e-15);
  EXPECT_NEAR(haar.g()[0], 1.0 / kSqrt2, 1e-15);
  EXPECT_NEAR(haar.g()[1], -1.0 / kSqrt2, 1e-15);
}

TEST(FilterTest, Db2MatchesClosedForm) {
  Result<WaveletFilter> db2 = WaveletFilter::Daubechies(2);
  ASSERT_TRUE(db2.ok());
  const double s3 = std::sqrt(3.0);
  const double expected[4] = {(1 + s3) / (4 * kSqrt2), (3 + s3) / (4 * kSqrt2),
                              (3 - s3) / (4 * kSqrt2), (1 - s3) / (4 * kSqrt2)};
  // Either orientation of the extremal-phase filter is acceptable.
  double err_fwd = 0.0, err_rev = 0.0;
  for (int k = 0; k < 4; ++k) {
    err_fwd = std::max(err_fwd, std::fabs(db2->h()[static_cast<size_t>(k)] -
                                          expected[k]));
    err_rev = std::max(err_rev, std::fabs(db2->h()[static_cast<size_t>(k)] -
                                          expected[3 - k]));
  }
  EXPECT_LT(std::min(err_fwd, err_rev), 1e-10);
}

TEST(FilterTest, RejectsUnsupportedOrders) {
  EXPECT_FALSE(WaveletFilter::Daubechies(0).ok());
  EXPECT_FALSE(WaveletFilter::Daubechies(11).ok());
  EXPECT_FALSE(WaveletFilter::Symmlet(-1).ok());
  EXPECT_FALSE(WaveletFilter::Symmlet(42).ok());
  // Snapshot-supplied names: none of these reaches the filter memo.
  const std::string junk(64, '\x9c');
  for (const std::string& name :
       {std::string("sym0"), std::string("sym11"), std::string("db99"),
        std::string("db"), std::string("symx"), std::string("db0"), std::string(""),
        junk}) {
    const Result<WaveletFilter> filter = WaveletFilter::FromName(name);
    ASSERT_FALSE(filter.ok()) << name;
    EXPECT_EQ(filter.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(FilterTest, SymmletIsMoreSymmetricThanDaubechies) {
  // Least-asymmetric selection should concentrate the filter's mass closer
  // to its center: compare centered second moments of |h|².
  for (int n : {6, 8, 10}) {
    const WaveletFilter db = *WaveletFilter::Daubechies(n);
    const WaveletFilter sym = *WaveletFilter::Symmlet(n);
    const auto spread = [](const WaveletFilter& f) {
      double c = 0.0, mass = 0.0;
      for (int k = 0; k < f.length(); ++k) {
        const double w = f.h()[static_cast<size_t>(k)] * f.h()[static_cast<size_t>(k)];
        c += k * w;
        mass += w;
      }
      c /= mass;
      double s = 0.0;
      for (int k = 0; k < f.length(); ++k) {
        const double w = f.h()[static_cast<size_t>(k)] * f.h()[static_cast<size_t>(k)];
        s += (k - c) * (k - c) * w;
      }
      return s / mass;
    };
    EXPECT_LT(spread(sym), spread(db) + 1e-9) << "N=" << n;
  }
}

TEST(FilterTest, Sym1IsHaar) {
  Result<WaveletFilter> sym1 = WaveletFilter::Symmlet(1);
  ASSERT_TRUE(sym1.ok());
  EXPECT_EQ(sym1->length(), 2);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FilterTest, FromNameHandsOutTheBuildersFiltersOnEveryCall) {
  for (int n = 1; n <= 10; ++n) {
    const WaveletFilter db = *WaveletFilter::Daubechies(n);
    const WaveletFilter sym = *WaveletFilter::Symmlet(n);
    for (int call = 0; call < 3; ++call) {
      const Result<WaveletFilter> db_named = WaveletFilter::FromName(Format("db%d", n));
      const Result<WaveletFilter> sym_named = WaveletFilter::FromName(Format("sym%d", n));
      ASSERT_TRUE(db_named.ok()) << n;
      ASSERT_TRUE(sym_named.ok()) << n;
      EXPECT_TRUE(SameBits(db_named->h(), db.h())) << "db" << n;
      EXPECT_TRUE(SameBits(db_named->g(), db.g())) << "db" << n;
      EXPECT_EQ(db_named->name(), n == 1 ? "haar" : Format("db%d", n));
      EXPECT_TRUE(SameBits(sym_named->h(), sym.h())) << "sym" << n;
      EXPECT_TRUE(SameBits(sym_named->g(), sym.g())) << "sym" << n;
      EXPECT_EQ(sym_named->name(), n == 1 ? "haar" : Format("sym%d", n));
      EXPECT_TRUE(SameBits(WaveletFilter::Daubechies(n)->h(), db.h())) << n;
      EXPECT_TRUE(SameBits(WaveletFilter::Symmlet(n)->h(), sym.h())) << n;
    }
  }
  EXPECT_TRUE(SameBits(WaveletFilter::FromName("haar")->h(), WaveletFilter::Haar().h()));
}

TEST(CascadeTest, HaarTablesAreIndicator) {
  Result<CascadeTables> tables = ComputeCascadeTables(WaveletFilter::Haar(), 3);
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->phi.size(), 9u);  // grid 0,...,1 step 1/8
  for (size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(tables->phi[i], 1.0);
  EXPECT_DOUBLE_EQ(tables->phi[8], 0.0);
  // Haar ψ: +1 on [0, 1/2), −1 on [1/2, 1).
  EXPECT_DOUBLE_EQ(tables->psi[0], 1.0);
  EXPECT_DOUBLE_EQ(tables->psi[3], 1.0);
  EXPECT_DOUBLE_EQ(tables->psi[4], -1.0);
  EXPECT_DOUBLE_EQ(tables->psi[7], -1.0);
}

TEST(CascadeTest, ScalingValuesAtIntegersSumToOne) {
  const WaveletFilter f = *WaveletFilter::Daubechies(4);
  Result<std::vector<double>> values = ScalingFunctionAtIntegers(f);
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), static_cast<size_t>(f.length()));
  double sum = 0.0;
  for (double v : *values) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-10);
  EXPECT_NEAR(values->front(), 0.0, 1e-10);
  EXPECT_NEAR(values->back(), 0.0, 1e-10);
}

TEST(CascadeTest, RefinementEquationHoldsOnTables) {
  const WaveletFilter f = *WaveletFilter::Symmlet(4);
  Result<CascadeTables> tables = ComputeCascadeTables(f, 8);
  ASSERT_TRUE(tables.ok());
  // φ(x) = √2 Σ h_k φ(2x − k) checked at interior grid points.
  const long scale = 1L << 8;
  const long size = static_cast<long>(tables->phi.size());
  for (long i = 16; i < size; i += 97) {
    if (2 * i >= size) break;
    double acc = 0.0;
    for (int k = 0; k < f.length(); ++k) {
      const long idx = 2 * i - static_cast<long>(k) * scale;
      if (idx >= 0 && idx < size) {
        acc += f.h()[static_cast<size_t>(k)] * tables->phi[static_cast<size_t>(idx)];
      }
    }
    EXPECT_NEAR(tables->phi[static_cast<size_t>(i)], kSqrt2 * acc, 1e-10);
  }
}

TEST(CascadeTest, RejectsBadLevels) {
  EXPECT_FALSE(ComputeCascadeTables(WaveletFilter::Haar(), 0).ok());
  EXPECT_FALSE(ComputeCascadeTables(WaveletFilter::Haar(), 99).ok());
}

TEST(BasisTest, ScalingIdentity) {
  Result<WaveletBasis> basis = WaveletBasis::Create(*WaveletFilter::Symmlet(8), 12);
  ASSERT_TRUE(basis.ok());
  // φ_{j,k}(x) = 2^{j/2} φ(2^j x − k).
  const double x = 0.3517;
  for (int j : {0, 2, 5}) {
    for (int k : {-3, 0, 4}) {
      const double direct = std::sqrt(std::ldexp(1.0, j)) *
                            basis->Phi(std::ldexp(x, j) - static_cast<double>(k));
      EXPECT_NEAR(basis->PhiJk(j, k, x), direct, 1e-12);
      const double direct_psi = std::sqrt(std::ldexp(1.0, j)) *
                                basis->Psi(std::ldexp(x, j) - static_cast<double>(k));
      EXPECT_NEAR(basis->PsiJk(j, k, x), direct_psi, 1e-12);
    }
  }
}

TEST(BasisTest, PointWindowCoversSupport) {
  Result<WaveletBasis> basis = WaveletBasis::Create(*WaveletFilter::Symmlet(8), 10);
  ASSERT_TRUE(basis.ok());
  stats::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const double x = rng.UniformDouble();
    for (int j : {1, 4, 7}) {
      const TranslationWindow window = basis->PointWindow(j, x);
      const TranslationWindow level = basis->LevelWindow(j);
      // Every k outside the window must evaluate to zero.
      for (int k = level.lo; k <= level.hi; ++k) {
        if (k >= window.lo && k <= window.hi) continue;
        EXPECT_EQ(basis->PhiJk(j, k, x), 0.0) << "j=" << j << " k=" << k << " x=" << x;
        EXPECT_EQ(basis->PsiJk(j, k, x), 0.0) << "j=" << j << " k=" << k << " x=" << x;
      }
      EXPECT_LE(window.size(), basis->support_length() + 1);
    }
  }
}

TEST(BasisTest, LevelWindowShape) {
  Result<WaveletBasis> basis = WaveletBasis::Create(*WaveletFilter::Symmlet(8), 8);
  ASSERT_TRUE(basis.ok());
  const TranslationWindow w = basis->LevelWindow(4);
  EXPECT_EQ(w.lo, -(basis->support_length() - 1));
  EXPECT_EQ(w.hi, 15);
  EXPECT_EQ(w.size(), 16 + basis->support_length() - 1);
}

TEST(DwtTest, RejectsBadInput) {
  const WaveletFilter haar = WaveletFilter::Haar();
  EXPECT_FALSE(ForwardDwt(haar, std::vector<double>(100, 1.0), 2).ok());  // not pow2
  EXPECT_FALSE(ForwardDwt(haar, std::vector<double>(8, 1.0), 5).ok());    // too deep
  DwtCoefficients empty;
  EXPECT_FALSE(InverseDwt(haar, empty).ok());
}

TEST(DwtTest, HaarAveragesAndDifferences) {
  const WaveletFilter haar = WaveletFilter::Haar();
  Result<DwtCoefficients> coeffs = ForwardDwt(haar, {1.0, 3.0, 5.0, 7.0}, 1);
  ASSERT_TRUE(coeffs.ok());
  EXPECT_NEAR(coeffs->approximation[0], 4.0 / kSqrt2, 1e-12);
  EXPECT_NEAR(coeffs->approximation[1], 12.0 / kSqrt2, 1e-12);
  EXPECT_NEAR(coeffs->details[0][0], -2.0 / kSqrt2, 1e-12);
  EXPECT_NEAR(coeffs->details[0][1], -2.0 / kSqrt2, 1e-12);
}

}  // namespace
}  // namespace wavelet
}  // namespace wde
