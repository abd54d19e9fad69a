// Snapshot-subsystem bench: per registered estimator, ingest a stream, then
// measure snapshot size and in-memory save/load time through the registry's
// whole-snapshot path (SaveEstimatorSnapshot / LoadEstimatorSnapshot), plus
// the peak-RSS deltas of one file save (SaveEstimatorSnapshotFile) and one
// load. Produces the committed BENCH_snapshot.json
// artifact (see docs/BENCHMARKS.md) with a per-row round-trip verdict: the
// restored estimator must answer a range workload bit-identically to the
// saved one and re-save to the very same bytes.
//
// RSS deltas come from /proc/self/status VmHWM around a clear_refs peak
// reset — Linux-only, reported as 0 elsewhere. Plain steady_clock timing:
// save and load run in --repeats interleaved pairs of passes (save, load;
// load, save; ...), each pass several saves or loads long so that it lasts
// at least about 2 ms. The JSON seconds are each direction's best pass
// divided by its operations; `load_save_ratio` is the median of the
// per-pair load/save ratios.
//
// Usage: perf_snapshot [--n=200000] [--queries=256] [--repeats=11]
//                      [--out=BENCH_snapshot.json] [--check]
//
// The rows are one instance of every 1-D tag, plus a second sharded row
// wrapping the wavelet sketch as the e2e wcv-read workload does (sym8,
// j0 = 2, j_max = 11, 4 shards, block_size 1024).
//
// --check: exit 1 if any estimator fails to round-trip bit-identically —
// the fidelity contract at bench scale, not just test sizes — if a wavelet
// row (the sketch or the sharded sketch) loads in more than twice its save
// time (median per-pair ratio): a restore finds its filter and basis tables
// already built, so it parses and copies, nothing more — or if kde-rot's
// file save peaks at a
// quarter of its snapshot size or more: a save streams the state chunk to
// the file and buffers no payload.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
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
/// configurations (the sketch on a sym8 basis with 12 table levels).
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
  {
    // The paper's estimator as the e2e wcv-read workload serves it.
    selectivity::EstimatorSpec spec;
    spec.tag = "sharded";
    spec.sharded_inner_tag = "wavelet-cv";
    spec.filter = "sym8";
    spec.j0 = 2;
    spec.j_max = 11;
    spec.refit_interval = size_t{1} << 40;  // shards never refit on their own
    spec.shards = 4;
    spec.block_size = 1024;
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> sharded =
        selectivity::MakeEstimator(spec);
    WDE_CHECK_OK(sharded.status());
    estimators.push_back(std::move(sharded).value());
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
/// clear_refs). False where that is unavailable. Lets one process measure
/// per-phase peaks.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// Peak-RSS delta of running fn() once: how much extra memory the path
/// needs beyond what is already resident; 0 where the peak cannot be reset.
/// Trims the allocator first so pages freed by earlier phases do not mask
/// the allocation under test.
template <typename Fn>
size_t PeakRssDeltaOf(Fn&& fn) {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (!ResetPeakRss()) {
    fn();
    return 0;
  }
  const size_t before = ProcStatusBytes("VmRSS");
  fn();
  const size_t peak = ProcStatusBytes("VmHWM");
  return peak > before ? peak - before : 0;
}

struct Row {
  std::string tag;
  std::string name;
  size_t bytes = 0;
  size_t ops_per_pass = 1;  // saves (or loads) per timed pass
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  double load_save_ratio = 0.0;  // median of the per-pair ratios
  size_t save_peak_rss_bytes = 0;
  size_t load_peak_rss_bytes = 0;
  bool roundtrip_bit_identical = false;  // restored answers + re-saved bytes
};

double MbPerS(size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

/// Shortest timed pass worth gating: a ratio of two passes of tens of
/// microseconds moves with host noise, one of milliseconds does not.
constexpr double kMinPassSeconds = 2e-3;
constexpr size_t kMaxOpsPerPass = 4096;

/// Operations per pass: as many runs of `op` as fill kMinPassSeconds,
/// counted after one warm-up run, at least 1 and at most kMaxOpsPerPass.
template <typename Fn>
size_t OpsPerPass(Fn&& op) {
  op();
  const auto start = std::chrono::steady_clock::now();
  size_t ops = 0;
  do {
    op();
    ++ops;
  } while (ops < kMaxOpsPerPass && bench::perf::SecondsSince(start) < kMinPassSeconds);
  return ops;
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
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 11));
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_snapshot.json");

  stats::Rng data_rng(1);
  std::vector<double> stream(n);
  for (double& x : stream) x = data_rng.UniformDouble();
  stats::Rng query_rng(5);
  const std::vector<selectivity::Query> queries =
      selectivity::CenteredRangeWorkload(query_rng, query_count, 0.0, 1.0, 0.02, 0.3);

  const std::string save_path =
      (std::filesystem::temp_directory_path() / "wde_perf_snapshot.snap").string();
  std::vector<Row> rows;
  for (auto& estimator : MakeEstimators()) {
    estimator->InsertBatch(stream);
    std::vector<double> before(queries.size());
    estimator->Answer(queries, before);  // realistic: fitted cache exists

    Row row;
    row.tag = estimator->snapshot_type_tag();
    row.name = estimator->name();

    std::vector<uint8_t> bytes;
    const auto save = [&] {
      io::VectorSink sink;
      WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(*estimator, sink));
      bytes = sink.TakeBytes();
    };
    std::unique_ptr<selectivity::SelectivityEstimator> restored;
    const auto load = [&] {
      restored.reset();  // one restored estimator alive at a time
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshot(source);
      WDE_CHECK(loaded.ok(), loaded.status().ToString().c_str());
      restored = std::move(loaded).value();
    };
    row.ops_per_pass = OpsPerPass(save);
    load();
    const bench::perf::PairedTimes times = bench::perf::TimePaired(
        repeats,
        [&] {
          for (size_t i = 0; i < row.ops_per_pass; ++i) load();
        },
        [&] {
          for (size_t i = 0; i < row.ops_per_pass; ++i) save();
        });
    const double ops = static_cast<double>(row.ops_per_pass);
    row.load_seconds = times.best_a / ops;
    row.save_seconds = times.best_b / ops;
    row.load_save_ratio = times.median_ratio;
    row.bytes = bytes.size();
    row.save_peak_rss_bytes = PeakRssDeltaOf([&] {
      WDE_CHECK_OK(selectivity::SaveEstimatorSnapshotFile(*estimator, save_path));
    });
    std::remove(save_path.c_str());

    std::vector<double> after(queries.size());
    restored->Answer(queries, after);
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
      (*loaded)->Answer(queries, probe);
    });

    rows.push_back(row);
    std::printf(
        "%-28s %9zu B  save %8.3f ms (%8.1f MB/s)  load %8.3f ms (%8.1f MB/s)  "
        "load/save %5.2f  rss save %5.1f load %5.1f MB | %s\n",
        row.name.c_str(), row.bytes, row.save_seconds * 1e3,
        MbPerS(row.bytes, row.save_seconds), row.load_seconds * 1e3,
        MbPerS(row.bytes, row.load_seconds), row.load_save_ratio,
        static_cast<double>(row.save_peak_rss_bytes) / 1e6,
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
                 "\"load_mb_per_s\": %.1f, \"ops_per_pass\": %zu, "
                 "\"load_save_ratio\": %.3f, \"save_peak_rss_bytes\": %zu, "
                 "\"load_peak_rss_bytes\": %zu,\n",
                 row.bytes, row.save_seconds, MbPerS(row.bytes, row.save_seconds),
                 row.load_seconds, MbPerS(row.bytes, row.load_seconds), row.ops_per_pass,
                 row.load_save_ratio, row.save_peak_rss_bytes, row.load_peak_rss_bytes);
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
      // The wavelet rows (the sketch and its sharded wrapper) re-derive no
      // filter and no basis on load while one is alive, so a load costs
      // about what a save does.
      if (row.name.find("wavelet") != std::string::npos &&
          row.load_save_ratio > 2.0) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s loaded in %.2f times its save time "
                     "(median of %zu interleaved pairs; best %.3f against "
                     "%.3f ms)\n",
                     row.name.c_str(), row.load_save_ratio, repeats,
                     row.load_seconds * 1e3, row.save_seconds * 1e3);
        ++violations;
      }
      if (row.tag == "kde-rot" && row.save_peak_rss_bytes * 4 >= row.bytes) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s file save peaked at %zu bytes of RSS, "
                     "a quarter of its %zu-byte snapshot or more\n",
                     row.name.c_str(), row.save_peak_rss_bytes, row.bytes);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("round-trip fidelity, wavelet load-cost and save-memory checks passed\n");
  }
  return 0;
}
