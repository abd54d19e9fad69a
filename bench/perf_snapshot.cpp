// Snapshot-subsystem bench: per registered estimator, ingest a stream, then
// measure snapshot size and in-memory save/load time through the registry's
// whole-snapshot path (SaveEstimatorSnapshot / LoadEstimatorSnapshot), plus
// the peak-RSS delta of one load. Produces the committed BENCH_snapshot.json
// artifact (see docs/BENCHMARKS.md) with a per-row round-trip verdict: the
// restored estimator must answer a range workload bit-identically to the
// saved one and re-save to the very same bytes.
//
// RSS deltas come from /proc/self/status VmHWM around a clear_refs peak
// reset — Linux-only, reported as 0 elsewhere. Plain steady_clock timing,
// best of --repeats runs.
//
// Usage: perf_snapshot [--n=200000] [--queries=256] [--repeats=5]
//                      [--out=BENCH_snapshot.json] [--check]
//
// --check: exit 1 if any estimator fails to round-trip bit-identically —
// the fidelity contract at bench scale, not just test sizes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"
#include "wavelet/scaled_function.hpp"

namespace {

using namespace wde;

const wavelet::WaveletBasis& Sym8Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

/// One ingest-ready instance per registered estimator, at production-ish
/// configurations (the sketch at the perf_sharded level budget).
std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> MakeEstimators() {
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> estimators;
  estimators.push_back(
      std::make_unique<selectivity::EquiWidthHistogram>(0.0, 1.0, 64));
  estimators.push_back(
      std::make_unique<selectivity::EquiDepthHistogram>(0.0, 1.0, 32));
  estimators.push_back(
      std::make_unique<selectivity::ReservoirSampleSelectivity>(4096, 17));
  estimators.push_back(std::make_unique<selectivity::KdeSelectivity>(
      selectivity::KdeSelectivity::Options{}));
  {
    selectivity::WaveletSynopsisSelectivity::Options options;
    options.grid_log2 = 10;
    options.budget = 64;
    estimators.push_back(std::make_unique<selectivity::WaveletSynopsisSelectivity>(
        *selectivity::WaveletSynopsisSelectivity::Create(options)));
  }
  {
    selectivity::StreamingWaveletSelectivity::Options options;
    options.j0 = 2;
    options.j_max = 11;
    options.refit_interval = 65536;
    estimators.push_back(std::make_unique<selectivity::StreamingWaveletSelectivity>(
        *selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options)));
  }
  {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    estimators.push_back(std::make_unique<selectivity::ShardedSelectivityEstimator>(
        *selectivity::ShardedSelectivityEstimator::Create(prototype, options)));
  }
  return estimators;
}

/// Reads one "Key:   <n> kB" line of /proc/self/status; 0 off-Linux.
size_t ProcStatusBytes(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t bytes = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      bytes = std::strtoull(line + key_len + 1, nullptr, 10) * 1024;
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

/// Resets the process peak-RSS high-water mark to the current RSS (Linux
/// clear_refs); no-op elsewhere. Lets one process measure per-phase peaks.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// Peak-RSS delta of running fn() once: how much extra memory the load path
/// needs beyond what is already resident. Trims the allocator first so pages
/// freed by earlier phases do not mask the allocation under test.
template <typename Fn>
size_t PeakRssDeltaOf(Fn&& fn) {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  ResetPeakRss();
  const size_t before = ProcStatusBytes("VmRSS");
  fn();
  const size_t peak = ProcStatusBytes("VmHWM");
  return peak > before ? peak - before : 0;
}

struct Row {
  std::string tag;
  std::string name;
  size_t bytes = 0;
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  size_t load_peak_rss_bytes = 0;
  bool roundtrip_bit_identical = false;  // restored answers + re-saved bytes
};

double MbPerS(size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  // Build-type gate first: a debug binary must never gate CI or
  // regenerate committed numbers (see bench_common.hpp).
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t query_count = ArgSize(argc, argv, "queries", 256);
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 5));
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_snapshot.json");

  stats::Rng data_rng(1);
  std::vector<double> stream(n);
  for (double& x : stream) x = data_rng.UniformDouble();
  stats::Rng query_rng(5);
  const std::vector<selectivity::RangeQuery> queries =
      selectivity::CenteredRangeWorkload(query_rng, query_count, 0.0, 1.0, 0.02, 0.3);

  std::vector<Row> rows;
  for (auto& estimator : MakeEstimators()) {
    estimator->InsertBatch(stream);
    std::vector<double> before(queries.size());
    estimator->EstimateBatch(queries, before);  // realistic: fitted cache exists

    Row row;
    row.tag = estimator->snapshot_type_tag();
    row.name = estimator->name();

    std::vector<uint8_t> bytes;
    row.save_seconds = bench::perf::BestOfSeconds(repeats, [&] {
      io::VectorSink sink;
      WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(*estimator, sink));
      bytes = sink.TakeBytes();
    });
    row.bytes = bytes.size();

    std::unique_ptr<selectivity::SelectivityEstimator> restored;
    row.load_seconds = bench::perf::BestOfSeconds(repeats, [&] {
      restored.reset();  // one restored estimator alive at a time
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshot(source);
      WDE_CHECK(loaded.ok(), loaded.status().ToString().c_str());
      restored = std::move(loaded).value();
    });

    std::vector<double> after(queries.size());
    restored->EstimateBatch(queries, after);
    io::VectorSink resaved;
    WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(*restored, resaved));
    row.roundtrip_bit_identical = restored->count() == estimator->count() &&
                                  after == before &&
                                  std::ranges::equal(resaved.bytes(), bytes);
    restored.reset();
    row.load_peak_rss_bytes = PeakRssDeltaOf([&] {
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshot(source);
      WDE_CHECK(loaded.ok());
      std::vector<double> probe(queries.size());
      (*loaded)->EstimateBatch(queries, probe);
    });

    rows.push_back(row);
    std::printf(
        "%-28s %9zu B  save %8.3f ms (%8.1f MB/s)  load %8.3f ms (%8.1f MB/s)  "
        "rss %5.1f MB | %s\n",
        row.name.c_str(), row.bytes, row.save_seconds * 1e3,
        MbPerS(row.bytes, row.save_seconds), row.load_seconds * 1e3,
        MbPerS(row.bytes, row.load_seconds),
        static_cast<double>(row.load_peak_rss_bytes) / 1e6,
        row.roundtrip_bit_identical ? "bit-identical" : "MISMATCH");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_snapshot\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, \"repeats\": %zu},\n",
               n, query_count, repeats);
  wde::bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out, "    {\"tag\": \"%s\", \"estimator\": \"%s\",\n",
                 row.tag.c_str(), row.name.c_str());
    std::fprintf(out,
                 "     \"bytes\": %zu, \"save_seconds\": %.6e, "
                 "\"save_mb_per_s\": %.1f, \"load_seconds\": %.6e, "
                 "\"load_mb_per_s\": %.1f, \"load_peak_rss_bytes\": %zu,\n",
                 row.bytes, row.save_seconds, MbPerS(row.bytes, row.save_seconds),
                 row.load_seconds, MbPerS(row.bytes, row.load_seconds),
                 row.load_peak_rss_bytes);
    std::fprintf(out, "     \"roundtrip_bit_identical\": %s}%s\n",
                 row.roundtrip_bit_identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    for (const Row& row : rows) {
      if (!row.roundtrip_bit_identical) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s did not round-trip bit-identically\n",
                     row.name.c_str());
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("round-trip fidelity checks passed\n");
  }
  return 0;
}
