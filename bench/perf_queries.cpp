// Query-taxonomy bench: every registered estimator (built declaratively from
// one EstimatorSpec per tag) ingests a uniform stream, then answers
//   (a) a range-only batch        (the classic optimizer workload shape),
//   (b) a mixed-kind batch        (ranges, points, one-sided, CDF, quantiles
//                                  through the one Answer() surface),
//   (c) the mixed batch as a per-query scalar loop (the batch path's
//                                  amortization baseline),
//   (d) one batch per kind — ranges, CDFs, quantiles — after ForceRefit(),
//                                  reported in µs/query with the
//                                  quantile/CDF cost ratio.
// Produces the committed BENCH_query_taxonomy.json artifact (see
// docs/BENCHMARKS.md): per-estimator timings, queries/second and the batch
// speedup, plus the correctness evidence — mixed batch ≡ scalar loop
// bitwise and the CDF/quantile round-trip error max_p |F(F^{-1}(p)) - p|.
//
// No google-benchmark dependency: plain steady_clock timing, best of
// --repeats runs, so the binary builds everywhere and CI can always produce
// the artifact.
//
// Usage: perf_queries [--n=200000] [--queries=1024] [--repeats=3]
//                     [--out=BENCH_query_taxonomy.json] [--check]
//
// --check turns the two correctness fields into a gate: exit 1 if any
// estimator's mixed batch is not bit-identical to its scalar loop, or if the
// round-trip error exceeds 0.08 (estimator granularity: reservoir jumps,
// bucket fractions, signed-estimate wiggle). CI runs with --check so the
// taxonomy contract is enforced at production scale, not just at test sizes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wde;

constexpr size_t kIngestChunk = 65536;
/// Queries per kind in the per-kind rows.
constexpr size_t kKindQueries = 256;

struct Row {
  std::string tag;
  std::string name;
  double seconds_range_batch = 0.0;
  double seconds_mixed_batch = 0.0;
  double seconds_mixed_scalar = 0.0;
  double mixed_batch_qps = 0.0;
  double batch_speedup_vs_scalar = 0.0;
  bool mixed_batch_bit_identical_to_scalar = true;
  double cdf_quantile_roundtrip_max_error = 0.0;
  double range_us = 0.0;
  double cdf_us = 0.0;
  double quantile_us = 0.0;
};

/// Best-of-repeats timing of one Answer() batch.
double TimeAnswer(const selectivity::SelectivityEstimator& est,
                  std::span<const selectivity::Query> queries,
                  std::span<double> out, size_t repeats) {
  double best = 0.0;
  for (size_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    est.Answer(queries, out);
    const double elapsed = bench::perf::SecondsSince(start);
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
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
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_query_taxonomy.json");

  stats::Rng data_rng(1);
  std::vector<double> stream(n);
  for (double& x : stream) x = data_rng.UniformDouble();

  stats::Rng query_rng(5);
  const std::vector<selectivity::Query> range_workload =
      selectivity::CenteredRangeWorkload(query_rng, query_count, 0.0, 1.0, 0.02,
                                         0.3);
  const std::vector<selectivity::Query> mixed_workload =
      selectivity::MixedQueryWorkload(query_rng, query_count, 0.0, 1.0);
  std::vector<selectivity::Query> range_kind, cdf_kind, quantile_kind;
  for (size_t i = 0; i < kKindQueries; ++i) {
    range_kind.push_back(range_workload[i % range_workload.size()]);
    cdf_kind.push_back(selectivity::Query::Cdf(query_rng.UniformDouble()));
    quantile_kind.push_back(selectivity::Query::Quantile(query_rng.UniformDouble()));
  }

  std::vector<Row> rows;
  for (const std::string& tag : selectivity::EstimatorRegistry::Global().Tags()) {
    // One description per estimator: the spec is the whole configuration
    // story (the sharded row wraps the flagship wavelet sketch).
    selectivity::EstimatorSpec spec;
    spec.tag = tag;
    spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(tag);
    spec.buckets = 64;
    spec.grid_log2 = 10;
    spec.budget = 64;
    spec.refit_interval = std::max<size_t>(1, n / 4);
    spec.capacity = 4096;
    spec.sharded_inner_tag = "wavelet-cv";
    spec.shards = 4;
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> made =
        selectivity::MakeEstimator(spec);
    WDE_CHECK(made.ok(), "every registered tag must build from a spec");
    selectivity::SelectivityEstimator& est = **made;

    const std::span<const double> all(stream);
    for (size_t offset = 0; offset < all.size(); offset += kIngestChunk) {
      est.InsertBatch(
          all.subspan(offset, std::min(kIngestChunk, all.size() - offset)));
    }

    Row row;
    row.tag = tag;
    row.name = est.name();

    std::vector<double> range_answers(range_workload.size());
    row.seconds_range_batch =
        TimeAnswer(est, range_workload, range_answers, repeats);

    std::vector<double> mixed_answers(mixed_workload.size());
    row.seconds_mixed_batch =
        TimeAnswer(est, mixed_workload, mixed_answers, repeats);
    row.mixed_batch_qps =
        static_cast<double>(query_count) / row.seconds_mixed_batch;

    // Scalar loop over the same mixed batch, and the bitwise contract.
    std::vector<double> scalar_answers(mixed_workload.size());
    {
      double best = 0.0;
      for (size_t r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < mixed_workload.size(); ++i) {
          scalar_answers[i] = est.Answer(mixed_workload[i]);
        }
        const double elapsed = bench::perf::SecondsSince(start);
        if (r == 0 || elapsed < best) best = elapsed;
      }
      row.seconds_mixed_scalar = best;
    }
    row.batch_speedup_vs_scalar =
        row.seconds_mixed_scalar / row.seconds_mixed_batch;
    for (size_t i = 0; i < mixed_workload.size(); ++i) {
      if (mixed_answers[i] != scalar_answers[i]) {
        row.mixed_batch_bit_identical_to_scalar = false;
        break;
      }
    }

    // Per-kind cost on a quiesced estimator.
    est.ForceRefit();
    {
      constexpr double kUsPerQuery = 1e6 / static_cast<double>(kKindQueries);
      std::vector<double> kind_answers(kKindQueries);
      const auto us_per_query = [&](const std::vector<selectivity::Query>& kind) {
        return TimeAnswer(est, kind, kind_answers, repeats) * kUsPerQuery;
      };
      row.range_us = us_per_query(range_kind);
      row.cdf_us = us_per_query(cdf_kind);
      row.quantile_us = us_per_query(quantile_kind);
    }

    // CDF/quantile round trip on a fixed level grid.
    for (double p = 0.05; p < 1.0; p += 0.05) {
      const double quantile = est.Answer(selectivity::Query::Quantile(p));
      const double round_trip = est.Answer(selectivity::Query::Cdf(quantile));
      row.cdf_quantile_roundtrip_max_error = std::max(
          row.cdf_quantile_roundtrip_max_error, std::fabs(round_trip - p));
    }

    std::printf(
        "%-14s range %.4fs  mixed %.4fs (%.3g q/s)  scalar %.4fs  "
        "speedup %.2fx  bitwise %s  roundtrip %.3g  "
        "range/cdf/quantile %.3g/%.3g/%.3g us\n",
        tag.c_str(), row.seconds_range_batch, row.seconds_mixed_batch,
        row.mixed_batch_qps, row.seconds_mixed_scalar,
        row.batch_speedup_vs_scalar,
        row.mixed_batch_bit_identical_to_scalar ? "yes" : "NO",
        row.cdf_quantile_roundtrip_max_error, row.range_us, row.cdf_us,
        row.quantile_us);
    rows.push_back(row);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_queries\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, "
               "\"ingest_chunk\": %zu, \"repeats\": %zu, "
               "\"mix\": \"40%% range / 12%% each point,less,greater,cdf,"
               "quantile\", \"per_kind_queries\": %zu},\n",
               n, query_count, kIngestChunk, repeats, kKindQueries);
  wde::bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "    {\"tag\": \"%s\", \"estimator\": \"%s\", "
        "\"seconds_range_batch\": %.6f, \"seconds_mixed_batch\": %.6f, "
        "\"seconds_mixed_scalar\": %.6f, \"mixed_batch_qps\": %.1f, "
        "\"batch_speedup_vs_scalar\": %.4f, "
        "\"mixed_batch_bit_identical_to_scalar\": %s, "
        "\"cdf_quantile_roundtrip_max_error\": %.3e, "
        "\"range_us\": %.4g, \"cdf_us\": %.4g, \"quantile_us\": %.4g, "
        "\"quantile_over_cdf\": %.4g}%s\n",
        row.tag.c_str(), row.name.c_str(), row.seconds_range_batch,
        row.seconds_mixed_batch, row.seconds_mixed_scalar, row.mixed_batch_qps,
        row.batch_speedup_vs_scalar,
        row.mixed_batch_bit_identical_to_scalar ? "true" : "false",
        row.cdf_quantile_roundtrip_max_error, row.range_us, row.cdf_us,
        row.quantile_us, row.quantile_us / row.cdf_us,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    for (const Row& row : rows) {
      if (!row.mixed_batch_bit_identical_to_scalar) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s mixed batch differs from scalar loop\n",
                     row.tag.c_str());
        ++violations;
      }
      if (row.cdf_quantile_roundtrip_max_error > 0.08) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s cdf/quantile roundtrip error %.3g > "
                     "0.08\n",
                     row.tag.c_str(), row.cdf_quantile_roundtrip_max_error);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("query taxonomy contract checks passed\n");
  }
  return 0;
}
