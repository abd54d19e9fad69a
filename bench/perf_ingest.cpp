// Steady-state ingest bench for the incremental refit engine: stream n
// values into each refit-carrying estimator in fixed-size chunks, forcing a
// refit after every chunk (ForceRefit — exactly the insert+refit cost, no
// query-path dilution). Each incremental row delta-merges the previous fit
// (a sorted-prefix merge of the KDE and equi-depth buffers); its baseline
// row ("scratch") times, after every chunk, the first fit of a fresh
// estimator that holds the stream so far — one radix sort of all values,
// the from-zero work the incremental fold replaces. Filling the fresh
// estimator is not timed. The wavelet sketch has one refit path, so it has
// no row here. Produces the committed BENCH_ingest.json artifact: amortized
// insert+refit throughput, per-refit latency percentiles, the speedup over
// the fresh fits, and the bitwise-equivalence evidence (a mixed query
// workload answered by the incremental estimator after ingest must match
// the last fresh fit bit for bit).
//
// A second section times one serving publish of the sharded engine after a
// delta of Δ = n/100 inserts, call by call as EstimatorService runs it:
// ExtractMergedView() (which refreshes the engine's merged view), then
// ForceRefit() and one warm query on the extracted view. The incremental
// row refreshes by per-replica high-water tail merges + one incremental
// refit; its baseline publishes from a fresh engine fed the stream so far,
// whose first refresh is the from-zero CloneEmpty + K MergeFrom rebuild +
// full refit. Over several cycles the published views must answer
// bitwise-equally.
//
// A third section times insert alone on the paper's estimator (wavelet-cv,
// sym8, j0 = 2, j_max = 11, never refit): n values in 4096-value
// InsertBatch calls, in ns per value, unsharded and as a 4-shard engine on a
// 1-worker pool (the e2e `wcv-read` writer's shape). Its evidence row feeds
// the same stream to EmpiricalCoefficients::AddAll in those batches and to
// the scalar Add one value at a time, and compares every S1/S2 slot.
//
// A fourth section times one serving publish of kde-rot (the e2e `kde-read`
// writer's shape): n values fitted, then cycles of a 12,288-value tail
// followed by CloneForView(), ForceRefit() and one warm query on the view,
// the previous view retiring as the service retires it. Besides the p50 it
// reports the minor page faults per publish from getrusage on this process:
// a fold that writes into the block of a retired column faults only on the
// pages the column has grown by, one that maps a fresh block faults on all
// of them. Like the e2e driver, the bench fixes glibc's mmap threshold at
// 1 MiB, so every section runs with freed large blocks unmapped.
//
// No google-benchmark dependency: plain steady_clock timing, like the other
// chrono drivers. Single-threaded except the sharded sections' ingest.
//
// Usage: perf_ingest [--n=1000000] [--chunk=8192] [--cycles=12]
//                    [--repeats=2] [--out=BENCH_ingest.json] [--check]
//
// --check turns the contracts into gates: exit 1 if an incremental row
// loses bitwise equivalence with its fresh fits, if the kde-rot amortized
// insert+refit speedup falls below 2x, if the sharded incremental publish is
// less than 5x faster than the fresh engine's, if the batched S1/S2 sums
// differ from the scalar Add path in any bit, or if the median kde-rot
// publish faults on more than 1/8 of its column's pages (a return to freshly
// mapped columns, whatever the timings). --cycles counts the publishes of
// both publish sections. CI runs with --check on the release build; debug
// binaries refuse --check outright (see bench_common.hpp).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/coefficients.hpp"
#include "parallel/thread_pool.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wde;

std::unique_ptr<selectivity::SelectivityEstimator> Make(
    const selectivity::EstimatorSpec& spec) {
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> estimator =
      selectivity::MakeEstimator(spec);
  WDE_CHECK(estimator.ok(), estimator.status().ToString().c_str());
  return std::move(estimator).value();
}

selectivity::EstimatorSpec SpecFor(const std::string& tag) {
  selectivity::EstimatorSpec spec;
  spec.tag = tag;
  // The cadence is driven by ForceRefit below, not the interval; a huge
  // interval keeps the insert paths from refitting a second time mid-chunk.
  spec.refit_interval = ~size_t{0} >> 1;
  if (tag == "sharded") spec.sharded_inner_tag = "kde-rot";
  return spec;
}

std::vector<double> Answers(const selectivity::SelectivityEstimator& estimator,
                            const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  estimator.Answer(queries, out);
  return out;
}

double PercentileMs(std::vector<double> seconds, double p) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const size_t idx = std::min(
      seconds.size() - 1, static_cast<size_t>(p * static_cast<double>(seconds.size())));
  return seconds[idx] * 1e3;
}

struct IngestRun {
  double seconds = 0.0;             // whole insert+refit loop
  std::vector<double> refit_laps;   // per-cycle (chunk insert + forced refit)
  std::vector<double> answers;      // mixed workload after ingest
};

/// The steady-state loop: InsertBatch(chunk) then ForceRefit(), over the
/// whole stream. Every cycle pays one delta-merge refit; the answers
/// afterwards must be bit-identical to RunFreshFits'.
IngestRun RunIngest(selectivity::SelectivityEstimator& estimator,
                    const std::vector<double>& stream, size_t chunk,
                    const std::vector<selectivity::Query>& queries) {
  IngestRun run;
  const std::span<const double> all(stream);
  const auto start = std::chrono::steady_clock::now();
  for (size_t offset = 0; offset < all.size(); offset += chunk) {
    const auto lap = std::chrono::steady_clock::now();
    estimator.InsertBatch(all.subspan(offset, std::min(chunk, all.size() - offset)));
    estimator.ForceRefit();
    run.refit_laps.push_back(bench::perf::SecondsSince(lap));
  }
  run.seconds = bench::perf::SecondsSince(start);
  run.answers = Answers(estimator, queries);
  return run;
}

/// The baseline: after every chunk, the first fit of a fresh estimator
/// holding the stream so far. Only ForceRefit() is timed; the previous fit
/// is released first, as a refit releases the column it replaces.
IngestRun RunFreshFits(const selectivity::EstimatorSpec& spec,
                       const std::vector<double>& stream, size_t chunk,
                       const std::vector<selectivity::Query>& queries) {
  IngestRun run;
  const std::span<const double> all(stream);
  std::unique_ptr<selectivity::SelectivityEstimator> fresh;
  for (size_t offset = 0; offset < all.size(); offset += chunk) {
    fresh.reset();
    fresh = Make(spec);
    fresh->InsertBatch(all.first(std::min(offset + chunk, all.size())));
    const auto lap = std::chrono::steady_clock::now();
    fresh->ForceRefit();
    run.refit_laps.push_back(bench::perf::SecondsSince(lap));
    run.seconds += run.refit_laps.back();
  }
  run.answers = Answers(*fresh, queries);
  return run;
}

struct IngestRow {
  std::string estimator;
  std::string mode;  // "incremental", or "scratch": the fresh-fit baseline
  size_t refits = 0;
  double seconds = 0.0;
  double items_per_second = 0.0;
  double refit_p50_ms = 0.0;
  double refit_p95_ms = 0.0;
  double refit_max_ms = 0.0;
  double speedup_vs_scratch = 1.0;  // 1.0 on the scratch row itself
  bool bitwise_equal_to_scratch = true;
};

struct InsertOnlyRow {
  std::string estimator;
  size_t shards = 1;
  double seconds = 0.0;
  double ns_per_value = 0.0;
};

/// Values per InsertBatch call in the insert-only section: the e2e writer's
/// admission size.
constexpr size_t kInsertBlock = 4096;

/// Streams `stream` into a fresh estimator from `spec` in kInsertBlock-value
/// InsertBatch calls; the best of `repeats` wall times.
double InsertOnlySeconds(const selectivity::EstimatorSpec& spec,
                         const std::vector<double>& stream, size_t repeats) {
  double best = 0.0;
  for (size_t r = 0; r < repeats; ++r) {
    std::unique_ptr<selectivity::SelectivityEstimator> estimator = Make(spec);
    const std::span<const double> all(stream);
    const auto start = std::chrono::steady_clock::now();
    for (size_t offset = 0; offset < all.size(); offset += kInsertBlock) {
      estimator->InsertBatch(
          all.subspan(offset, std::min(kInsertBlock, all.size() - offset)));
    }
    const double seconds = bench::perf::SecondsSince(start);
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Every S1/S2 slot of AddAll over kInsertBlock-value batches against the
/// scalar Add loop, compared bit for bit.
bool BatchSumsMatchScalar(const wavelet::WaveletBasis& basis, int j0, int j_max,
                          const std::vector<double>& stream) {
  Result<core::EmpiricalCoefficients> batch =
      core::EmpiricalCoefficients::Create(basis, j0, j_max);
  Result<core::EmpiricalCoefficients> scalar =
      core::EmpiricalCoefficients::Create(basis, j0, j_max);
  WDE_CHECK(batch.ok() && scalar.ok());
  const std::span<const double> all(stream);
  for (size_t offset = 0; offset < all.size(); offset += kInsertBlock) {
    batch->AddAll(all.subspan(offset, std::min(kInsertBlock, all.size() - offset)));
  }
  for (double x : stream) scalar->Add(x);
  const auto same = [](const core::CoefficientLevel& a, const core::CoefficientLevel& b) {
    return std::memcmp(a.s1.data(), b.s1.data(), a.s1.size_bytes()) == 0 &&
           std::memcmp(a.s2.data(), b.s2.data(), a.s2.size_bytes()) == 0;
  };
  bool equal = same(batch->scaling_level(), scalar->scaling_level());
  for (int j = j0; j <= j_max; ++j) {
    equal = equal && same(batch->detail_level(j), scalar->detail_level(j));
  }
  return equal;
}

struct RefreshRow {
  std::string mode;  // "incremental", or "scratch": the fresh-fit baseline
  size_t delta = 0;
  size_t cycles = 0;
  double refresh_total_seconds = 0.0;
  double refresh_p50_ms = 0.0;
  double refresh_max_ms = 0.0;
  double speedup_vs_scratch = 1.0;
  bool bitwise_equal_to_scratch = true;
};

struct KdePublishRow {
  size_t n_start = 0;
  size_t n_end = 0;
  size_t tail = 0;
  size_t publishes = 0;
  double publish_p50_ms = 0.0;
  double publish_max_ms = 0.0;
  double faults_p50 = 0.0;    // minor page faults of the median publish
  double faults_mean = 0.0;   // ... and per publish on average
  double column_pages = 0.0;  // of the last published column
};

/// Values per publish in the kde-rot publish section: about what the e2e
/// `kde-read` writer admits between two publishes.
constexpr size_t kPublishTail = 12288;
/// Untimed publishes first, so the timed ones find retired columns parked.
constexpr size_t kPublishWarmups = 2;

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

}  // namespace

int main(int argc, char** argv) {
  // Build-type gate first: a debug binary must never gate CI or regenerate
  // committed numbers (see bench_common.hpp).
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  // The e2e driver's allocator setting: every freed block of 1 MiB or more
  // goes back to the OS. glibc's default threshold slides up after the first
  // large free, and then the heap recycles some freed columns and not others,
  // so a publish's page faults would depend on the heap's history.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const size_t n = ArgSize(argc, argv, "n", 1000000);
  const size_t chunk = std::max<size_t>(1, ArgSize(argc, argv, "chunk", 8192));
  const size_t cycles = std::max<size_t>(1, ArgSize(argc, argv, "cycles", 12));
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 2));
  const std::string out_path = ArgString(argc, argv, "out", "BENCH_ingest.json");

  stats::Rng data_rng(1);
  std::vector<double> stream(n);
  for (double& x : stream) x = data_rng.UniformDouble();
  stats::Rng query_rng(5);
  const std::vector<selectivity::Query> queries =
      selectivity::MixedQueryWorkload(query_rng, 256, 0.0, 1.0);

  // -------------------------------------------------------------------------
  // Section 1: steady-state insert+refit against fresh fits, per tag.
  // -------------------------------------------------------------------------
  std::vector<IngestRow> ingest_rows;
  for (const char* tag : {"kde-rot", "equi-depth"}) {
    IngestRun scratch;
    IngestRun incremental;
    for (size_t r = 0; r < repeats; ++r) {
      IngestRun run = RunFreshFits(SpecFor(tag), stream, chunk, queries);
      if (r == 0 || run.seconds < scratch.seconds) scratch = std::move(run);
      std::unique_ptr<selectivity::SelectivityEstimator> inc = Make(SpecFor(tag));
      run = RunIngest(*inc, stream, chunk, queries);
      if (r == 0 || run.seconds < incremental.seconds) incremental = std::move(run);
    }
    const bool bitwise = incremental.answers == scratch.answers;
    for (const IngestRun* run : {&scratch, &incremental}) {
      IngestRow row;
      row.estimator = tag;
      row.mode = run == &scratch ? "scratch" : "incremental";
      row.refits = run->refit_laps.size();
      row.seconds = run->seconds;
      row.items_per_second = static_cast<double>(n) / run->seconds;
      row.refit_p50_ms = PercentileMs(run->refit_laps, 0.50);
      row.refit_p95_ms = PercentileMs(run->refit_laps, 0.95);
      row.refit_max_ms = PercentileMs(run->refit_laps, 1.0);
      row.speedup_vs_scratch =
          run == &scratch ? 1.0 : scratch.seconds / run->seconds;
      row.bitwise_equal_to_scratch = bitwise;
      ingest_rows.push_back(row);
      std::printf(
          "%-10s %-11s %4zu refits  %.3fs  %.3g items/s  "
          "p50 %.2fms p95 %.2fms max %.2fms  speedup %.2fx  bitwise %s\n",
          row.estimator.c_str(), row.mode.c_str(), row.refits, row.seconds,
          row.items_per_second, row.refit_p50_ms, row.refit_p95_ms,
          row.refit_max_ms, row.speedup_vs_scratch, bitwise ? "true" : "false");
    }
  }

  // -------------------------------------------------------------------------
  // Section 2: sharded publish (merged-view refresh + extract) after
  // Δ = n/100 inserts.
  // -------------------------------------------------------------------------
  const size_t delta = std::max<size_t>(1, n / 100);
  std::vector<RefreshRow> refresh_rows;
  {
    const selectivity::EstimatorSpec spec = SpecFor("sharded");
    std::unique_ptr<selectivity::SelectivityEstimator> inc = Make(spec);
    inc->InsertBatch(stream);
    inc->ForceRefit();  // start from a current, fitted merged view
    std::vector<double> seen = stream;  // what a fresh engine is fed
    std::unique_ptr<selectivity::SelectivityEstimator> scr;
    const auto publish = [](const selectivity::SelectivityEstimator& engine) {
      std::unique_ptr<selectivity::SelectivityEstimator> view =
          static_cast<const selectivity::ShardedSelectivityEstimator&>(engine)
              .ExtractMergedView();
      view->ForceRefit();
      (void)view->Answer(selectivity::Query::Cdf(view->Domain().hi));
      return view;
    };

    stats::Rng delta_rng(9);
    std::vector<double> tail(delta);
    std::vector<double> inc_laps, scr_laps;
    bool bitwise = true;
    for (size_t c = 0; c < cycles; ++c) {
      for (double& x : tail) x = delta_rng.UniformDouble();
      inc->InsertBatch(tail);
      seen.insert(seen.end(), tail.begin(), tail.end());
      const auto inc_start = std::chrono::steady_clock::now();
      const auto inc_view = publish(*inc);
      inc_laps.push_back(bench::perf::SecondsSince(inc_start));
      scr.reset();  // the previous fresh engine retires its view first
      scr = Make(spec);
      scr->InsertBatch(seen);
      const auto scr_start = std::chrono::steady_clock::now();
      const auto scr_view = publish(*scr);
      scr_laps.push_back(bench::perf::SecondsSince(scr_start));
      bitwise = bitwise && Answers(*inc_view, queries) == Answers(*scr_view, queries);
    }
    double inc_total = 0.0, scr_total = 0.0;
    for (double s : inc_laps) inc_total += s;
    for (double s : scr_laps) scr_total += s;
    for (const bool is_scratch : {true, false}) {
      RefreshRow row;
      row.mode = is_scratch ? "scratch" : "incremental";
      row.delta = delta;
      row.cycles = cycles;
      row.refresh_total_seconds = is_scratch ? scr_total : inc_total;
      row.refresh_p50_ms = PercentileMs(is_scratch ? scr_laps : inc_laps, 0.50);
      row.refresh_max_ms = PercentileMs(is_scratch ? scr_laps : inc_laps, 1.0);
      row.speedup_vs_scratch = is_scratch ? 1.0 : scr_total / inc_total;
      row.bitwise_equal_to_scratch = bitwise;
      refresh_rows.push_back(row);
      std::printf(
          "sharded-publish %-11s Δ=%zu ×%zu  total %.3fs  p50 %.2fms  "
          "max %.2fms  speedup %.2fx  bitwise %s\n",
          row.mode.c_str(), row.delta, row.cycles, row.refresh_total_seconds,
          row.refresh_p50_ms, row.refresh_max_ms, row.speedup_vs_scratch,
          bitwise ? "true" : "false");
    }
  }

  // -------------------------------------------------------------------------
  // Section 3: insert only, the paper's estimator, unsharded and sharded.
  // -------------------------------------------------------------------------
  std::vector<InsertOnlyRow> insert_rows;
  bool sums_bitwise = true;
  {
    const selectivity::EstimatorSpec spec = SpecFor("wavelet-cv");
    parallel::ThreadPool pool(1);
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      InsertOnlyRow row;
      row.estimator = shards == 1 ? "wavelet-cv" : "sharded";
      row.shards = shards;
      selectivity::EstimatorSpec run_spec = spec;
      if (shards > 1) {
        run_spec.tag = "sharded";
        run_spec.sharded_inner_tag = "wavelet-cv";
        run_spec.shards = shards;
        run_spec.block_size = 1024;  // a 4096-value batch spans every shard
        run_spec.pool = &pool;
      }
      row.seconds = InsertOnlySeconds(run_spec, stream, repeats);
      row.ns_per_value = row.seconds / static_cast<double>(n) * 1e9;
      insert_rows.push_back(row);
      std::printf("insert-only %-10s shards %zu  %.3fs  %.1f ns/value\n",
                  row.estimator.c_str(), row.shards, row.seconds, row.ns_per_value);
    }
    Result<wavelet::WaveletFilter> filter = wavelet::WaveletFilter::FromName(spec.filter);
    WDE_CHECK(filter.ok(), filter.status().ToString().c_str());
    Result<wavelet::WaveletBasis> basis =
        wavelet::WaveletBasis::Create(*filter, spec.table_levels);
    WDE_CHECK(basis.ok(), basis.status().ToString().c_str());
    sums_bitwise = BatchSumsMatchScalar(*basis, spec.j0, spec.j_max, stream);
    std::printf("insert-only S1/S2 AddAll vs scalar Add (j0=%d, j_max=%d): %s\n",
                spec.j0, spec.j_max, sums_bitwise ? "bitwise equal" : "DIFFER");
  }

  // -------------------------------------------------------------------------
  // Section 4: kde-rot publish, as EstimatorService runs it.
  // -------------------------------------------------------------------------
  KdePublishRow kde_publish;
  {
    std::unique_ptr<selectivity::SelectivityEstimator> writer = Make(SpecFor("kde-rot"));
    writer->InsertBatch(stream);
    writer->ForceRefit();
    std::unique_ptr<selectivity::SelectivityEstimator> view = writer->CloneForView();
    stats::Rng tail_rng(11);
    std::vector<double> tail(kPublishTail);
    std::vector<double> laps;
    std::vector<double> faults;
    for (size_t c = 0; c < kPublishWarmups + cycles; ++c) {
      for (double& x : tail) x = tail_rng.UniformDouble();
      writer->InsertBatch(tail);
      const long faults_before = MinorFaults();
      const auto start = std::chrono::steady_clock::now();
      std::unique_ptr<selectivity::SelectivityEstimator> next = writer->CloneForView();
      next->ForceRefit();
      (void)next->Answer(selectivity::Query::Cdf(0.5));
      const double seconds = bench::perf::SecondsSince(start);
      const long faults_after = MinorFaults();
      view = std::move(next);  // the previous view retires
      if (c < kPublishWarmups) continue;
      laps.push_back(seconds);
      faults.push_back(static_cast<double>(faults_after - faults_before));
    }
    kde_publish.n_start = n;
    kde_publish.n_end = view->count();
    kde_publish.tail = kPublishTail;
    kde_publish.publishes = laps.size();
    kde_publish.publish_p50_ms = PercentileMs(laps, 0.50);
    kde_publish.publish_max_ms = PercentileMs(laps, 1.0);
    std::sort(faults.begin(), faults.end());
    kde_publish.faults_p50 = faults[faults.size() / 2];
    for (const double f : faults) kde_publish.faults_mean += f;
    kde_publish.faults_mean /= static_cast<double>(faults.size());
    const auto column_bytes = static_cast<double>(kde_publish.n_end * sizeof(double));
    kde_publish.column_pages = column_bytes / static_cast<double>(sysconf(_SC_PAGESIZE));
    std::printf(
        "kde-publish n=%zu..%zu tail=%zu ×%zu  p50 %.2fms  max %.2fms  "
        "minor faults p50 %.0f mean %.1f (column %.0f pages)\n",
        kde_publish.n_start, kde_publish.n_end, kde_publish.tail,
        kde_publish.publishes, kde_publish.publish_p50_ms,
        kde_publish.publish_max_ms, kde_publish.faults_p50, kde_publish.faults_mean,
        kde_publish.column_pages);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_ingest\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"chunk\": %zu, "
               "\"refresh_delta\": %zu, \"refresh_cycles\": %zu, "
               "\"queries\": %zu, \"repeats\": %zu},\n",
               n, chunk, delta, cycles, queries.size(), repeats);
  bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"ingest\": [\n");
  for (size_t i = 0; i < ingest_rows.size(); ++i) {
    const IngestRow& row = ingest_rows[i];
    std::fprintf(out,
                 "    {\"estimator\": \"%s\", \"mode\": \"%s\", "
                 "\"refits\": %zu, \"seconds\": %.6f, "
                 "\"items_per_second\": %.1f, \"refit_p50_ms\": %.4f, "
                 "\"refit_p95_ms\": %.4f, \"refit_max_ms\": %.4f, "
                 "\"speedup_vs_scratch\": %.4f, "
                 "\"bitwise_equal_to_scratch\": %s}%s\n",
                 row.estimator.c_str(), row.mode.c_str(), row.refits,
                 row.seconds, row.items_per_second, row.refit_p50_ms,
                 row.refit_p95_ms, row.refit_max_ms, row.speedup_vs_scratch,
                 row.bitwise_equal_to_scratch ? "true" : "false",
                 i + 1 < ingest_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"sharded_refresh\": [\n");
  for (size_t i = 0; i < refresh_rows.size(); ++i) {
    const RefreshRow& row = refresh_rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"delta\": %zu, \"cycles\": %zu, "
                 "\"refresh_total_seconds\": %.6f, \"refresh_p50_ms\": %.4f, "
                 "\"refresh_max_ms\": %.4f, \"speedup_vs_scratch\": %.4f, "
                 "\"bitwise_equal_to_scratch\": %s}%s\n",
                 row.mode.c_str(), row.delta, row.cycles,
                 row.refresh_total_seconds, row.refresh_p50_ms,
                 row.refresh_max_ms, row.speedup_vs_scratch,
                 row.bitwise_equal_to_scratch ? "true" : "false",
                 i + 1 < refresh_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"insert_only\": [\n");
  for (size_t i = 0; i < insert_rows.size(); ++i) {
    const InsertOnlyRow& row = insert_rows[i];
    std::fprintf(out,
                 "    {\"estimator\": \"%s\", \"shards\": %zu, \"batch\": %zu, "
                 "\"seconds\": %.6f, \"ns_per_value\": %.1f, "
                 "\"sums_bitwise_equal_to_scalar_add\": %s}%s\n",
                 row.estimator.c_str(), row.shards, kInsertBlock, row.seconds,
                 row.ns_per_value, sums_bitwise ? "true" : "false",
                 i + 1 < insert_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"kde_publish\": {\"n_start\": %zu, \"n_end\": %zu, "
               "\"tail\": %zu, \"publishes\": %zu, \"publish_p50_ms\": %.4f, "
               "\"publish_max_ms\": %.4f, \"minor_faults_p50\": %.0f, "
               "\"minor_faults_mean\": %.1f, \"column_pages\": %.0f}\n}\n",
               kde_publish.n_start, kde_publish.n_end, kde_publish.tail,
               kde_publish.publishes, kde_publish.publish_p50_ms,
               kde_publish.publish_max_ms, kde_publish.faults_p50,
               kde_publish.faults_mean, kde_publish.column_pages);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    for (const IngestRow& row : ingest_rows) {
      if (!row.bitwise_equal_to_scratch) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s %s answers differ from a fresh fit\n",
                     row.estimator.c_str(), row.mode.c_str());
        ++violations;
      }
      if (row.estimator == "kde-rot" && row.mode == "incremental" &&
          row.speedup_vs_scratch < 2.0) {
        std::fprintf(stderr,
                     "CHECK FAILED: kde-rot incremental insert+refit speedup "
                     "%.2fx < 2x\n",
                     row.speedup_vs_scratch);
        ++violations;
      }
    }
    for (const RefreshRow& row : refresh_rows) {
      if (!row.bitwise_equal_to_scratch) {
        std::fprintf(stderr,
                     "CHECK FAILED: sharded %s published answers differ from "
                     "a fresh engine's\n",
                     row.mode.c_str());
        ++violations;
      }
      if (row.mode == "incremental" && row.speedup_vs_scratch < 5.0) {
        std::fprintf(stderr,
                     "CHECK FAILED: sharded incremental publish speedup %.2fx < 5x\n",
                     row.speedup_vs_scratch);
        ++violations;
      }
    }
    if (!sums_bitwise) {
      std::fprintf(stderr,
                   "CHECK FAILED: batched S1/S2 sums differ from scalar Add\n");
      ++violations;
    }
    if (kde_publish.faults_p50 > kde_publish.column_pages / 8) {
      std::fprintf(stderr,
                   "CHECK FAILED: the median kde-rot publish faults %.0f pages > "
                   "1/8 of its %.0f-page column\n",
                   kde_publish.faults_p50, kde_publish.column_pages);
      ++violations;
    }
    if (violations > 0) return 1;
    std::printf("incremental-refit, insert and publish contract checks passed\n");
  }
  return 0;
}
