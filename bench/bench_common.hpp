#ifndef WDE_BENCH_BENCH_COMMON_HPP_
#define WDE_BENCH_BENCH_COMMON_HPP_

// Shared plumbing for the reproduction benches (one binary per table/figure
// of the paper). Each bench prints: a header identifying the experiment, the
// effective configuration, and a table (paper tables) or labelled series
// blocks (paper figures). Absolute numbers depend on our concrete density
// parameter choices (the paper gives its densities only as plots); the
// qualitative shapes are the reproduction targets — see EXPERIMENTS.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.hpp"
#include "harness/cases.hpp"
#include "harness/experiment_config.hpp"
#include "harness/monte_carlo.hpp"
#include "harness/table.hpp"
#include "processes/target_density.hpp"
#include "stats/loss.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace bench {

/// The paper's wavelet: Daubechies Symmlet with N = 8 vanishing moments.
inline const wavelet::WaveletBasis& Sym8Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletFilter> filter = wavelet::WaveletFilter::Symmlet(8);
    WDE_CHECK(filter.ok());
    Result<wavelet::WaveletBasis> b = wavelet::WaveletBasis::Create(*filter, 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

inline void PrintHeader(const std::string& experiment,
                        const harness::ExperimentConfig& config) {
  std::cout << "==== " << experiment << " ====\n";
  std::cout << "wavelet: sym8 | " << config.Describe() << "\n\n";
}

inline std::vector<double> Grid01(size_t points) {
  std::vector<double> x(points);
  for (size_t i = 0; i < points; ++i) {
    x[i] = static_cast<double>(i) / static_cast<double>(points - 1);
  }
  return x;
}

/// Fits both CV estimators from one pass over the data (the coefficients are
/// shared between HTCV and STCV, as in the paper's simulations).
struct CvFits {
  core::CrossValidationResult ht_cv;
  core::CrossValidationResult st_cv;
  core::WaveletEstimate ht;
  core::WaveletEstimate st;
};

inline CvFits FitBothCv(const std::vector<double>& xs) {
  Result<core::WaveletDensityFit> fit =
      core::WaveletDensityFit::Fit(Sym8Basis(), xs);
  WDE_CHECK(fit.ok(), fit.status().ToString().c_str());
  core::CrossValidationResult ht_cv =
      core::CrossValidate(fit->coefficients(), core::ThresholdKind::kHard);
  core::CrossValidationResult st_cv =
      core::CrossValidate(fit->coefficients(), core::ThresholdKind::kSoft);
  core::WaveletEstimate ht = fit->Estimate(ht_cv.Schedule(), core::ThresholdKind::kHard);
  core::WaveletEstimate st = fit->Estimate(st_cv.Schedule(), core::ThresholdKind::kSoft);
  return CvFits{std::move(ht_cv), std::move(st_cv), std::move(ht), std::move(st)};
}

// ---------------------------------------------------------------------------
// Chrono/JSON perf-driver plumbing, shared by the perf_* drivers so every
// emitter records the same host metadata (hardware_concurrency, compiler,
// build flags) and times with the same clock. Committed BENCH_*.json files
// are interpreted against this block: flat scaling curves on a 1-core
// container are expected, not bugs.
// ---------------------------------------------------------------------------

/// The optimization flags the binary was compiled with; injected by
/// bench/CMakeLists.txt for the perf drivers, "unknown" elsewhere.
#ifndef WDE_BENCH_BUILD_FLAGS
#define WDE_BENCH_BUILD_FLAGS "unknown"
#endif

namespace perf {

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Best-of-N wall time of fn(); best-of (not mean) because the drivers run
/// on shared CI machines where the noise is one-sided.
template <typename Fn>
double BestOfSeconds(size_t repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, SecondsSince(start));
  }
  return best;
}

/// Each side's best pass and the median of the per-pair ratios
/// time(a) / time(b).
struct PairedTimes {
  double best_a = 0.0;
  double best_b = 0.0;
  double median_ratio = 1.0;
};

/// Times `a` and `b` in `pairs` interleaved pairs, alternating which runs
/// first (AB, BA, AB, ...), so host noise that drifts over a second moves
/// both sides of a pair alike. Gate the median ratio, not a ratio of two
/// separate best-of timings; an odd `pairs` makes the median one pair's.
template <class A, class B>
PairedTimes TimePaired(size_t pairs, A&& a, B&& b) {
  const auto time = [](auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return SecondsSince(start);
  };
  PairedTimes out;
  out.best_a = out.best_b = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  for (size_t p = 0; p < pairs; ++p) {
    double ta = 0.0, tb = 0.0;
    if (p % 2 == 0) {
      ta = time(a);
      tb = time(b);
    } else {
      tb = time(b);
      ta = time(a);
    }
    out.best_a = std::min(out.best_a, ta);
    out.best_b = std::min(out.best_b, tb);
    ratios.push_back(ta / tb);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2, ratios.end());
  out.median_ratio = ratios[ratios.size() / 2];
  return out;
}

inline const char* CompilerVersion() {
#if defined(__VERSION__)
  return "" __VERSION__;
#else
  return "unknown";
#endif
}

/// Whether this binary is an optimized build. NDEBUG is the one signal the
/// toolchain gives portably, and it is the one that matters: assertions-on
/// builds spend their time in WDE_CHECKs, not the measured kernels.
inline constexpr bool kReleaseBuild =
#if defined(NDEBUG)
    true;
#else
    false;
#endif

inline const char* BuildType() { return kReleaseBuild ? "release" : "debug"; }

/// Build-type gate every chrono driver runs first. A debug binary refuses
/// --check outright (its timings would gate CI on assertion overhead, and a
/// committed JSON regenerated from it would be silently wrong) and loudly
/// stamps plain timing runs. Returns false when the driver must exit
/// non-zero.
inline bool CheckBuildForTiming(bool check_mode) {
  if (kReleaseBuild) return true;
  if (check_mode) {
    std::fprintf(stderr,
                 "FAIL: --check requires a release (NDEBUG) build; this "
                 "binary is a debug build. Rebuild with --preset release.\n");
    return false;
  }
  std::fprintf(stderr,
               "WARNING: debug (assertions-on) build; timings below are NOT "
               "comparable to committed BENCH_*.json numbers.\n");
  return true;
}

/// Writes the uniform `"host": {...},` JSON line (with trailing comma).
inline void WriteHostJson(std::FILE* out) {
  std::fprintf(out,
               "  \"host\": {\"hardware_concurrency\": %u, "
               "\"compiler\": \"%s\", \"build_flags\": \"%s\", "
               "\"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(), CompilerVersion(),
               WDE_BENCH_BUILD_FLAGS, BuildType());
}

}  // namespace perf
}  // namespace bench
}  // namespace wde

#endif  // WDE_BENCH_BENCH_COMMON_HPP_
