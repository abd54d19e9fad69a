// Evaluation-kernel bench: the KDE's block-moment CDF and the SIMD batch
// kernels vs their scalar baselines, on uniform samples. Produces the
// committed BENCH_kernels.json artifact (see docs/BENCHMARKS.md): per-row
// baseline/optimized seconds, speedup, and the equivalence evidence — either
// bit-identity (rows whose optimized path carries the repo's bitwise
// contract) or a max-abs-error against the row's documented tolerance.
//
// Rows and their contracts:
//   kde_evaluate_many    EvaluateMany vs scalar Evaluate loop — bitwise,
//                        speedup-guarded (median of interleaved pairs).
//   kde_range_batch      CdfAt(b)−CdfAt(a) vs the O(n) per-sample
//                        IntegrateRange — gated at 1e-9 abs; guarded.
//   kde_cdf_n1e5,        Epanechnikov CdfAt (block prefix moments) vs the
//   kde_cdf_n1e6         O(n) long-double closed-form oracle at n = 1e5 and
//                        1e6 (fixed, whatever --n) — gated at 1e-12 abs;
//                        guarded. The ratio of the two rows' CdfAt costs is
//                        the scaling check: at most 2 across the decade,
//                        gated on the median of interleaved pairs of passes
//                        of 1024 × 256 queries each.
//   wavelet_evaluate_many WaveletEstimate::EvaluateMany vs scalar Evaluate
//                        loop — bitwise, guarded (interleaved pairs).
//   hist_prefix_rebuild  PrefixSumExclusiveBlocked vs Sequential on integer
//                        counts — bitwise (exact reassociation), guarded
//                        (interleaved pairs).
//
// A guarded row whose two paths are within a small factor of each other
// times them interleaved, baseline and optimized alternating in order
// (AB, BA, AB, ...), and its speedup is the median of the per-pair ratios:
// host noise that drifts over a second moves both sides of a pair alike.
// The JSON seconds are still each side's best pass; 11 pairs per row.
//
// Usage: perf_kernels [--n=200000] [--queries=1024] [--repeats=3]
//                     [--out=BENCH_kernels.json] [--check]
//
// --check turns the contracts into gates: exit 1 if any bitwise row loses
// bit-identity, any tolerance row exceeds its bound, any guarded row's
// optimized path is slower than its scalar baseline (speedup < 1.0), or the
// KDE CDF costs more than 2x per query at n = 1e6 than at n = 1e5.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "kernel/bandwidth.hpp"
#include "kernel/kde.hpp"
#include "kernel/kernels.hpp"
#include "numerics/simd.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"
#include "wavelet/scaled_function.hpp"

namespace {

using namespace wde;

struct Row {
  std::string name;
  std::string equivalence;  // "bitwise" | "tolerance"
  size_t items = 0;         // evaluations per timed pass
  double seconds_baseline = 0.0;
  double seconds_optimized = 0.0;
  double speedup = 1.0;
  double tolerance = 0.0;       // tolerance rows: the gated bound
  double max_abs_error = 0.0;   // tolerance rows: observed error
  bool bit_identical = true;    // bitwise rows: observed identity
  bool speedup_guarded = false; // --check fails if guarded && speedup < 1
};

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Interleaved pairs per paired row: odd, so the median is one pair's ratio.
constexpr size_t kPairs = 11;

/// Each side's best pass and the median of the per-pair ratios
/// time(a) / time(b).
struct PairedTimes {
  double best_a = 0.0;
  double best_b = 0.0;
  double median_ratio = 1.0;
};

/// Times `a` and `b` in `pairs` interleaved pairs, alternating which runs
/// first.
template <class A, class B>
PairedTimes TimePaired(size_t pairs, A&& a, B&& b) {
  const auto time = [](auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return bench::perf::SecondsSince(start);
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

double MaxAbsError(const std::vector<double>& got, const std::vector<double>& want) {
  double max_abs = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(got[i] - want[i]));
  }
  return max_abs;
}

kernel::KernelDensityEstimator MakeKde(kernel::KernelType type,
                                       const std::vector<double>& data) {
  const kernel::Kernel kernel(type);
  const double bandwidth = kernel::RuleOfThumbBandwidth(data);
  Result<kernel::KernelDensityEstimator> kde =
      kernel::KernelDensityEstimator::Create(kernel, bandwidth, data);
  WDE_CHECK(kde.ok(), kde.status().ToString().c_str());
  return *std::move(kde);
}

/// The O(n) oracle: every sample's closed-form Epanechnikov CDF term in long
/// double, saturating at |u| >= 1.
double OracleEpanechnikovCdf(const std::vector<double>& data, double h, double x) {
  long double acc = 0.0L;
  for (double xi : data) {
    const long double u =
        (static_cast<long double>(x) - static_cast<long double>(xi)) / h;
    if (u >= 1.0L) {
      acc += 1.0L;
    } else if (u > -1.0L) {
      acc += 0.5L + 0.75L * u - 0.25L * u * u * u;
    }
  }
  return static_cast<double>(acc / static_cast<long double>(data.size()));
}

/// Passes of CdfAtMany per timed kde_cdf block: 1024 × 256 queries is tens
/// of milliseconds at either n, long enough to time steadily.
constexpr size_t kCdfPasses = 1024;

/// The Epanechnikov KDE of n uniform samples, as the kde_cdf rows use it.
struct CdfCase {
  std::vector<double> data;
  kernel::KernelDensityEstimator kde;
};

CdfCase MakeCdfCase(size_t n) {
  stats::Rng rng(n);
  std::vector<double> data(n);
  for (double& x : data) x = rng.UniformDouble();
  kernel::KernelDensityEstimator kde = MakeKde(kernel::KernelType::kEpanechnikov, data);
  return {std::move(data), std::move(kde)};
}

/// One kde_cdf row. The oracle is timed once (it is the reference, not a
/// contender); `pass_seconds` is the best timed block of kCdfPasses CdfAtMany
/// passes, and the row reports it per pass.
Row KdeCdfRow(const char* name, const CdfCase& c, const std::vector<double>& queries,
              double pass_seconds, double* checksum) {
  std::vector<double> oracle(queries.size()), got(queries.size());
  Row row;
  row.name = name;
  row.equivalence = "tolerance";
  row.items = queries.size();
  row.tolerance = 1e-12;
  row.speedup_guarded = true;
  row.seconds_baseline = bench::perf::BestOfSeconds(1, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      oracle[i] = OracleEpanechnikovCdf(c.data, c.kde.bandwidth(), queries[i]);
    }
    *checksum += oracle[0];
  });
  c.kde.CdfAtMany(queries, got);
  row.seconds_optimized = pass_seconds / static_cast<double>(kCdfPasses);
  row.speedup = row.seconds_baseline / row.seconds_optimized;
  row.max_abs_error = MaxAbsError(got, oracle);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Build-type gate first: a debug binary must never gate CI or
  // regenerate committed numbers (see bench_common.hpp).
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t query_count = ArgSize(argc, argv, "queries", 1024);
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 3));
  const std::string out_path = ArgString(argc, argv, "out", "BENCH_kernels.json");

  stats::Rng data_rng(1);
  std::vector<double> data(n);
  for (double& x : data) x = data_rng.UniformDouble();

  // Queries slightly overhanging [0, 1] so the saturated/empty-window edges
  // of the CDF paths are exercised, not just interior points.
  stats::Rng query_rng(5);
  std::vector<double> queries(query_count);
  for (double& x : queries) x = -0.1 + 1.2 * query_rng.UniformDouble();
  std::vector<double> range_lo(query_count), range_hi(query_count);
  for (size_t i = 0; i < query_count; ++i) {
    const double a = query_rng.UniformDouble();
    const double b = query_rng.UniformDouble();
    range_lo[i] = std::min(a, b);
    range_hi[i] = std::max(a, b);
  }

  std::vector<Row> rows;
  std::vector<double> baseline(query_count), optimized(query_count);
  double checksum = 0.0;  // keeps the timed passes observable

  // --- kde_evaluate_many: SIMD-gathered batch vs scalar loop (bitwise). ---
  {
    const kernel::KernelDensityEstimator kde =
        MakeKde(kernel::KernelType::kEpanechnikov, data);
    Row row;
    row.name = "kde_evaluate_many";
    row.equivalence = "bitwise";
    row.items = query_count;
    row.speedup_guarded = true;
    const PairedTimes times = TimePaired(
        kPairs,
        [&] {
          for (size_t i = 0; i < query_count; ++i) baseline[i] = kde.Evaluate(queries[i]);
          checksum += baseline[0];
        },
        [&] {
          kde.EvaluateMany(queries, optimized);
          checksum += optimized[0];
        });
    row.seconds_baseline = times.best_a;
    row.seconds_optimized = times.best_b;
    row.speedup = times.median_ratio;
    row.bit_identical = BitIdentical(optimized, baseline);
    rows.push_back(row);
  }

  // --- kde_range_batch: CdfAt-difference ranges vs IntegrateRange. The same
  // mass summed differently (two endpoint CDFs instead of one per-sample
  // pass), so the gate is a tight absolute tolerance, not bit-identity. ---
  {
    const kernel::KernelDensityEstimator kde =
        MakeKde(kernel::KernelType::kEpanechnikov, data);
    Row row;
    row.name = "kde_range_batch";
    row.equivalence = "tolerance";
    row.items = query_count;
    row.tolerance = 1e-9;
    row.speedup_guarded = true;
    row.seconds_baseline = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < query_count; ++i) {
        baseline[i] = kde.IntegrateRange(range_lo[i], range_hi[i]);
      }
      checksum += baseline[0];
    });
    row.seconds_optimized = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < query_count; ++i) {
        const double mass = kde.CdfAt(range_hi[i]) - kde.CdfAt(range_lo[i]);
        optimized[i] = std::clamp(mass, 0.0, 1.0);
      }
      checksum += optimized[0];
    });
    row.speedup = row.seconds_baseline / row.seconds_optimized;
    row.max_abs_error = MaxAbsError(optimized, baseline);
    rows.push_back(row);
  }

  // --- kde_cdf: O(log n + 64) block-moment CDF vs the O(n) oracle, at two
  // scales. 256 queries keep the oracle pass at about a second at 1e6. The
  // CdfAt blocks of the two scales are timed in interleaved pairs (the first
  // call builds each moment index, outside the timing); their median ratio
  // is the scaling check. ---
  const size_t cdf_count = std::min<size_t>(256, query_count);
  const std::vector<double> cdf_queries(queries.begin(), queries.begin() + cdf_count);
  double cdf_scaling = 0.0;
  {
    const CdfCase small = MakeCdfCase(100000);
    const CdfCase large = MakeCdfCase(1000000);
    std::vector<double> got(cdf_count);
    const auto passes = [&](const kernel::KernelDensityEstimator* kde) {
      return [&, kde] {
        for (size_t p = 0; p < kCdfPasses; ++p) {
          kde->CdfAtMany(cdf_queries, got);
          checksum += got[0];
        }
      };
    };
    small.kde.CdfAtMany(cdf_queries, got);
    large.kde.CdfAtMany(cdf_queries, got);
    const PairedTimes times = TimePaired(kPairs, passes(&large.kde), passes(&small.kde));
    cdf_scaling = times.median_ratio;
    rows.push_back(
        KdeCdfRow("kde_cdf_n1e5", small, cdf_queries, times.best_b, &checksum));
    rows.push_back(
        KdeCdfRow("kde_cdf_n1e6", large, cdf_queries, times.best_a, &checksum));
  }

  // --- wavelet_evaluate_many: level-hoisted + shared-weight-window batch vs
  // the scalar per-point reconstruction (bitwise). ---
  {
    Result<core::WaveletDensityFit> fit =
        core::WaveletDensityFit::Fit(bench::Sym8Basis(), data);
    WDE_CHECK(fit.ok(), fit.status().ToString().c_str());
    const core::WaveletEstimate estimate = fit->LinearEstimate(8);
    // Enough points that the per-level setup amortizes, as in production
    // grid/batch queries.
    const size_t points = std::max<size_t>(query_count, 16384);
    std::vector<double> xs(points), wave_base(points), wave_opt(points);
    stats::Rng xrng(9);
    for (double& x : xs) x = xrng.UniformDouble();
    Row row;
    row.name = "wavelet_evaluate_many";
    row.equivalence = "bitwise";
    row.items = points;
    row.speedup_guarded = true;
    const PairedTimes times = TimePaired(
        kPairs,
        [&] {
          for (size_t i = 0; i < points; ++i) wave_base[i] = estimate.Evaluate(xs[i]);
          checksum += wave_base[0];
        },
        [&] {
          estimate.EvaluateMany(xs, wave_opt);
          checksum += wave_opt[0];
        });
    row.seconds_baseline = times.best_a;
    row.seconds_optimized = times.best_b;
    row.speedup = times.median_ratio;
    row.bit_identical = BitIdentical(wave_opt, wave_base);
    rows.push_back(row);
  }

  // --- hist_prefix_rebuild: blocked vs sequential exclusive prefix sum over
  // integer-valued counts (exact reassociation ⇒ bitwise). Sized like a large
  // equi-width histogram; repeated per pass so the timing is resolvable. ---
  {
    const size_t buckets = 65536;
    const size_t passes = 64;
    std::vector<double> counts(buckets);
    stats::Rng crng(13);
    for (double& c : counts) {
      c = static_cast<double>(static_cast<uint64_t>(crng.UniformDouble() * 1024.0));
    }
    std::vector<double> prefix_base(buckets), prefix_opt(buckets);
    Row row;
    row.name = "hist_prefix_rebuild";
    row.equivalence = "bitwise";
    row.items = buckets * passes;
    row.speedup_guarded = true;
    const PairedTimes times = TimePaired(
        kPairs,
        [&] {
          for (size_t p = 0; p < passes; ++p) {
            checksum += numerics::PrefixSumExclusiveSequential(counts, prefix_base);
          }
        },
        [&] {
          for (size_t p = 0; p < passes; ++p) {
            checksum += numerics::PrefixSumExclusiveBlocked(counts, prefix_opt);
          }
        });
    row.seconds_baseline = times.best_a;
    row.seconds_optimized = times.best_b;
    row.speedup = times.median_ratio;
    row.bit_identical = BitIdentical(prefix_opt, prefix_base);
    rows.push_back(row);
  }

  for (const Row& row : rows) {
    std::printf("%-24s %8zu items  base %.6fs  opt %.6fs  speedup %.2fx  %s\n",
                row.name.c_str(), row.items, row.seconds_baseline,
                row.seconds_optimized, row.speedup,
                row.equivalence == "bitwise"
                    ? (row.bit_identical ? "bit_identical" : "MISMATCH")
                    : "tolerance");
  }
  std::printf("kde cdf cost 1e6/1e5: %.2f  (checksum %.6g)\n", cdf_scaling, checksum);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_kernels\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, \"repeats\": %zu, "
               "\"pairs\": %zu, \"data\": \"uniform[0,1]\", "
               "\"bandwidth\": \"rule-of-thumb\"},\n",
               n, query_count, repeats, kPairs);
  wde::bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"checks\": {\"kde_cdf_cost_ratio_1e6_vs_1e5\": %.4f},\n",
               cdf_scaling);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"equivalence\": \"%s\", \"items\": %zu, "
                 "\"seconds_baseline\": %.9f, \"seconds_optimized\": %.9f, "
                 "\"speedup\": %.4f, \"tolerance\": %.3e, "
                 "\"max_abs_error\": %.3e, \"bit_identical\": %s, "
                 "\"speedup_guarded\": %s}%s\n",
                 row.name.c_str(), row.equivalence.c_str(), row.items,
                 row.seconds_baseline, row.seconds_optimized, row.speedup,
                 row.tolerance, row.max_abs_error,
                 row.bit_identical ? "true" : "false",
                 row.speedup_guarded ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    if (!(cdf_scaling <= 2.0)) {
      std::fprintf(stderr, "CHECK FAILED: kde cdf cost ratio %.2f > 2\n", cdf_scaling);
      ++violations;
    }
    for (const Row& row : rows) {
      if (row.equivalence == "bitwise" && !row.bit_identical) {
        std::fprintf(stderr, "CHECK FAILED: %s lost bit-identity\n",
                     row.name.c_str());
        ++violations;
      }
      if (row.equivalence == "tolerance" &&
          !(row.max_abs_error <= row.tolerance)) {
        std::fprintf(stderr, "CHECK FAILED: %s max_abs_error %.3e > %.3e\n",
                     row.name.c_str(), row.max_abs_error, row.tolerance);
        ++violations;
      }
      if (row.speedup_guarded && row.speedup < 1.0) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s optimized path slower than scalar "
                     "baseline (speedup %.3fx)\n",
                     row.name.c_str(), row.speedup);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("evaluation-kernel contract checks passed\n");
  }
  return 0;
}
