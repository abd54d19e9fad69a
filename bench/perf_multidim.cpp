// Multi-dimensional estimation bench: rectangle-query throughput and
// accuracy of the prefix-sum grid ("grid2d"), the registered 2-D estimator
// (the committed rows carry its snapshot size so the state budget is
// visible too). The product/adaptive 2-D KDE it was once compared against
// is deleted, and with it the gate that the grid out-run it.
//
// Section 1 (throughput): batched Answer() over a uniform rect workload vs
// the scalar per-query loop on the anti-product data set. The batch path
// must be bit-identical to the scalar loop (the taxonomy contract, here
// exercised through kRect).
//
// Section 2 (accuracy): mean absolute error and mean q-error against exact
// truth (the fraction of ingested observations inside each rect) on two
// workloads — a correlated Gaussian mixture and the anti-product
// distribution, whose joint mass rides the diagonals while its marginals
// stay near-uniform. The grid's own product-of-marginals answer
// (marginal0 × marginal1) is scored as a baseline: the gap between the
// joint and the product columns is exactly what native 2-D estimation buys.
//
// No google-benchmark dependency: plain steady_clock timing, like the other
// chrono drivers. Single-threaded.
//
// Usage: perf_multidim [--n=200000] [--queries=4096] [--repeats=3]
//                      [--out=BENCH_multidim.json] [--check]
//
// --check turns the contracts into gates: exit 1 if any batched rect answer
// differs bitwise from the scalar loop, if the joint answers fail to beat
// the product-of-marginals baseline on the anti-product workload, or if a
// mean absolute error exceeds 0.05. CI runs with --check on the
// release build; debug binaries refuse --check outright (bench_common.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "io/serialize.hpp"
#include "multidim/synthetic2d.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wde;

constexpr const char* kTag = "grid2d";

std::unique_ptr<selectivity::SelectivityEstimator> MakeGrid2d() {
  selectivity::EstimatorSpec spec;
  spec.tag = kTag;
  spec.dims = 2;
  spec.grid_log2 = 6;  // 64 x 64 cells
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> est =
      selectivity::MakeEstimator(spec);
  WDE_CHECK(est.ok(), est.status().ToString().c_str());
  return std::move(est).value();
}

struct RectQuery {
  double lo0, hi0, lo1, hi1;
};

std::vector<RectQuery> RectWorkload(uint64_t seed, size_t count) {
  stats::Rng rng(seed);
  std::vector<RectQuery> out(count);
  for (RectQuery& q : out) {
    q.lo0 = rng.UniformDouble();
    q.hi0 = rng.UniformDouble();
    if (q.hi0 < q.lo0) std::swap(q.lo0, q.hi0);
    q.lo1 = rng.UniformDouble();
    q.hi1 = rng.UniformDouble();
    if (q.hi1 < q.lo1) std::swap(q.lo1, q.hi1);
  }
  return out;
}

std::vector<selectivity::Query> AsQueries(const std::vector<RectQuery>& rects) {
  std::vector<selectivity::Query> out;
  out.reserve(rects.size());
  for (const RectQuery& r : rects) {
    out.push_back(selectivity::Query::Rect(r.lo0, r.hi0, r.lo1, r.hi1));
  }
  return out;
}

/// Exact truth: the fraction of ingested observations inside the rect.
std::vector<double> ExactFractions(const std::vector<double>& interleaved,
                                   const std::vector<RectQuery>& rects) {
  const size_t n = interleaved.size() / 2;
  std::vector<double> out(rects.size());
  for (size_t q = 0; q < rects.size(); ++q) {
    const RectQuery& r = rects[q];
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const double x = interleaved[2 * i];
      const double y = interleaved[2 * i + 1];
      if (x >= r.lo0 && x <= r.hi0 && y >= r.lo1 && y <= r.hi1) ++hits;
    }
    out[q] = static_cast<double>(hits) / static_cast<double>(n);
  }
  return out;
}

struct Accuracy {
  double mean_abs_error = 0.0;
  double mean_qerror = 0.0;
};

Accuracy Score(const std::vector<double>& estimates,
               const std::vector<double>& truth) {
  constexpr double kFloor = 1e-4;
  Accuracy acc;
  for (size_t i = 0; i < estimates.size(); ++i) {
    acc.mean_abs_error += std::fabs(estimates[i] - truth[i]);
    const double lo = std::max(std::min(estimates[i], truth[i]), kFloor);
    const double hi = std::max(std::max(estimates[i], truth[i]), kFloor);
    acc.mean_qerror += hi / lo;
  }
  const double m = static_cast<double>(estimates.size());
  acc.mean_abs_error /= m;
  acc.mean_qerror /= m;
  return acc;
}

size_t SnapshotBytes(const selectivity::SelectivityEstimator& est) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(est, sink));
  return sink.bytes().size();
}

struct ThroughputRow {
  std::string estimator;
  size_t queries = 0;
  double batch_seconds = 0.0;
  double batch_qps = 0.0;
  double scalar_qps = 0.0;
  bool batch_equals_scalar = true;
};

struct AccuracyRow {
  std::string estimator;
  std::string workload;
  Accuracy joint;
  Accuracy product;  // the estimator's own marginal0 x marginal1 baseline
  size_t snapshot_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t num_queries =
      std::max<size_t>(16, ArgSize(argc, argv, "queries", 4096));
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 3));
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_multidim.json");

  // Two data sets, both n observations on [0, 1]^2, interleaved.
  stats::Rng mixture_rng(1);
  const std::vector<multidim::GaussianComponent2d> components = {
      {0.45, 0.30, 0.35, 0.08, 0.06, 0.6},
      {0.35, 0.70, 0.60, 0.07, 0.09, -0.5},
      {0.20, 0.50, 0.80, 0.12, 0.05, 0.0}};
  std::vector<double> mixture;
  multidim::SampleGaussianMixture2d(mixture_rng, components, n, &mixture);
  stats::Rng anti_rng(2);
  std::vector<double> anti;
  multidim::SampleAntiProduct2d(anti_rng, n, 0.03, &anti);

  const std::vector<RectQuery> rects = RectWorkload(5, num_queries);
  const std::vector<selectivity::Query> queries = AsQueries(rects);

  // -------------------------------------------------------------------------
  // Section 1: rect throughput (anti-product data), batch vs scalar.
  // -------------------------------------------------------------------------
  ThroughputRow throughput;
  {
    std::unique_ptr<selectivity::SelectivityEstimator> est = MakeGrid2d();
    est->InsertBatch(anti);
    est->ForceRefit();

    std::vector<double> batch(queries.size());
    double batch_best = 0.0, scalar_best = 0.0;
    for (size_t r = 0; r < repeats; ++r) {
      const auto batch_start = std::chrono::steady_clock::now();
      est->Answer(queries, batch);
      const double batch_s = bench::perf::SecondsSince(batch_start);
      if (r == 0 || batch_s < batch_best) batch_best = batch_s;
      const auto scalar_start = std::chrono::steady_clock::now();
      double sink = 0.0;
      for (const selectivity::Query& q : queries) sink += est->Answer(q);
      const double scalar_s = bench::perf::SecondsSince(scalar_start);
      if (r == 0 || scalar_s < scalar_best) scalar_best = scalar_s;
      volatile double guard = sink;  // keep the scalar loop from folding away
      (void)guard;
    }
    bool bitwise = true;
    for (size_t i = 0; i < queries.size(); ++i) {
      bitwise = bitwise && batch[i] == est->Answer(queries[i]);
    }
    throughput.estimator = kTag;
    throughput.queries = queries.size();
    throughput.batch_seconds = batch_best;
    throughput.batch_qps = static_cast<double>(queries.size()) / batch_best;
    throughput.scalar_qps = static_cast<double>(queries.size()) / scalar_best;
    throughput.batch_equals_scalar = bitwise;
    std::printf(
        "%-10s rect throughput: batch %.3g q/s  scalar %.3g q/s  bitwise %s\n",
        kTag, throughput.batch_qps, throughput.scalar_qps,
        bitwise ? "true" : "false");
  }

  // -------------------------------------------------------------------------
  // Section 2: accuracy vs exact truth, joint vs the estimator's own
  // product-of-marginals baseline.
  // -------------------------------------------------------------------------
  std::vector<AccuracyRow> accuracy_rows;
  const std::pair<const char*, const std::vector<double>*> workloads[] = {
      {"mixture", &mixture}, {"anti-product", &anti}};
  for (const auto& [workload_name, data] : workloads) {
    const std::vector<double> truth = ExactFractions(*data, rects);
    std::unique_ptr<selectivity::SelectivityEstimator> est = MakeGrid2d();
    est->InsertBatch(*data);
    est->ForceRefit();
    std::vector<double> joint(queries.size());
    est->Answer(queries, joint);
    std::vector<double> product(queries.size());
    for (size_t i = 0; i < rects.size(); ++i) {
      const double m0 = est->Answer(
          selectivity::Query::Marginal(0, rects[i].lo0, rects[i].hi0));
      const double m1 = est->Answer(
          selectivity::Query::Marginal(1, rects[i].lo1, rects[i].hi1));
      product[i] = m0 * m1;
    }
    AccuracyRow row;
    row.estimator = kTag;
    row.workload = workload_name;
    row.joint = Score(joint, truth);
    row.product = Score(product, truth);
    row.snapshot_bytes = SnapshotBytes(*est);
    accuracy_rows.push_back(row);
    std::printf(
        "%-10s %-12s joint mae %.5f qerr %.2f | product mae %.5f qerr %.2f "
        "| snapshot %zu bytes\n",
        kTag, workload_name, row.joint.mean_abs_error, row.joint.mean_qerror,
        row.product.mean_abs_error, row.product.mean_qerror,
        row.snapshot_bytes);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_multidim\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, "
               "\"repeats\": %zu, \"grid_log2\": 6},\n",
               n, num_queries, repeats);
  bench::perf::WriteHostJson(out);
  std::fprintf(out,
               "  \"rect_throughput\": [\n"
               "    {\"estimator\": \"%s\", \"queries\": %zu, "
               "\"batch_seconds\": %.6f, \"batch_qps\": %.1f, "
               "\"scalar_qps\": %.1f, \"batch_equals_scalar\": %s}\n",
               throughput.estimator.c_str(), throughput.queries,
               throughput.batch_seconds, throughput.batch_qps,
               throughput.scalar_qps,
               throughput.batch_equals_scalar ? "true" : "false");
  std::fprintf(out, "  ],\n  \"accuracy\": [\n");
  for (size_t i = 0; i < accuracy_rows.size(); ++i) {
    const AccuracyRow& row = accuracy_rows[i];
    std::fprintf(
        out,
        "    {\"estimator\": \"%s\", \"workload\": \"%s\", "
        "\"mean_abs_error\": %.6f, \"mean_qerror\": %.4f, "
        "\"product_mean_abs_error\": %.6f, \"product_mean_qerror\": %.4f, "
        "\"snapshot_bytes\": %zu}%s\n",
        row.estimator.c_str(), row.workload.c_str(), row.joint.mean_abs_error,
        row.joint.mean_qerror, row.product.mean_abs_error,
        row.product.mean_qerror, row.snapshot_bytes,
        i + 1 < accuracy_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    if (!throughput.batch_equals_scalar) {
      std::fprintf(stderr,
                   "CHECK FAILED: %s batched rect answers differ from the "
                   "scalar loop\n",
                   throughput.estimator.c_str());
      ++violations;
    }
    for (const AccuracyRow& row : accuracy_rows) {
      if (row.joint.mean_abs_error > 0.05) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s on %s: mean abs error %.5f > 0.05\n",
                     row.estimator.c_str(), row.workload.c_str(),
                     row.joint.mean_abs_error);
        ++violations;
      }
      if (row.workload == "anti-product" &&
          row.joint.mean_abs_error >= row.product.mean_abs_error) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s joint answers (mae %.5f) no better "
                     "than its product-of-marginals baseline (mae %.5f) on "
                     "the anti-product workload\n",
                     row.estimator.c_str(), row.joint.mean_abs_error,
                     row.product.mean_abs_error);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("multidim contract checks passed\n");
  }
  return 0;
}
