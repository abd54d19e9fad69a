// Cross-process distributed-merge demo for the snapshot subsystem (PR 4),
// run as SEPARATE PROCESSES so the wire format — not shared memory — carries
// the state:
//
//   # two ingest nodes, each owning a disjoint partition of one stream
//   snapshot_merge_demo ingest --part=0 --parts=2 --out=node-a
//   snapshot_merge_demo ingest --part=1 --parts=2 --out=node-b
//   # a combiner restores + merges the snapshots and checks the answers
//   snapshot_merge_demo combine --inputs=node-a,node-b
//
// Every process derives the same deterministic stream from a fixed seed;
// partition i of P owns the contiguous slice [i*n/P, (i+1)*n/P). Each ingest
// run feeds an equi-width histogram and the adaptive wavelet sketch and
// writes one snapshot file per estimator (<out>.histogram / <out>.wavelet).
// The combiner merges the snapshots via MergeFromSnapshot, re-runs
// sequential single-process ingest, and enforces the PR 3 merge contract on
// a range workload: bit-exact for the integer-count histogram, within
// 1e-12 · max(1, |seq|) for the wavelet sketch. Exit code 1 on any
// violation — CI runs the three commands as the cross-process gate.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "stats/rng.hpp"
#include "util/string_util.hpp"
#include "wavelet/scaled_function.hpp"

namespace {

using namespace wde;

constexpr uint64_t kStreamSeed = 4242;
constexpr uint64_t kQuerySeed = 5;

/// The shared stream every process re-derives: dependent-looking bimodal
/// values on [0, 1] from the deterministic RNG.
std::vector<double> SharedStream(size_t n) {
  stats::Rng rng(kStreamSeed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    const double u = rng.UniformDouble();
    x = rng.Bernoulli(0.6) ? 0.30 + 0.12 * u : 0.70 + 0.10 * u;
  }
  return xs;
}

selectivity::StreamingWaveletSelectivity MakeSketch() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 10;
  // Refits disabled during ingest: the combiner reconstructs once from the
  // merged sums, so sequential and merged answers share one refit point and
  // the 1e-12 contract is observable.
  options.refit_interval = 1u << 30;
  return *selectivity::StreamingWaveletSelectivity::Create(basis, options);
}

selectivity::EquiWidthHistogram MakeHistogram() {
  return selectivity::EquiWidthHistogram(0.0, 1.0, 64);
}

int RunIngest(int argc, char** argv) {
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t part = ArgSize(argc, argv, "part", 0);
  const size_t parts = ArgSize(argc, argv, "parts", 2);
  const std::string out = ArgString(argc, argv, "out", "");
  if (out.empty() || parts == 0 || part >= parts) {
    std::fprintf(stderr, "ingest needs --out=PREFIX, --parts>=1, --part<parts\n");
    return 2;
  }
  const std::vector<double> stream = SharedStream(n);
  const size_t lo = part * n / parts;
  const size_t hi = (part + 1) * n / parts;
  const std::span<const double> slice(stream.data() + lo, hi - lo);

  selectivity::EquiWidthHistogram histogram = MakeHistogram();
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch();
  histogram.InsertBatch(slice);
  sketch.InsertBatch(slice);

  const auto save = [](const selectivity::SelectivityEstimator& est,
                       const std::string& path) {
    Status saved = selectivity::SaveEstimatorSnapshotFile(est, path);
    if (!saved.ok()) {
      std::fprintf(stderr, "writing %s failed: %s\n", path.c_str(),
                   saved.ToString().c_str());
      return false;
    }
    std::printf("wrote %s (%s, %zu rows)\n", path.c_str(), est.name().c_str(),
                est.count());
    return true;
  };
  if (!save(histogram, out + ".histogram")) return 1;
  if (!save(sketch, out + ".wavelet")) return 1;
  return 0;
}

int RunCombine(int argc, char** argv) {
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const std::string inputs = ArgString(argc, argv, "inputs", "");
  if (inputs.empty()) {
    std::fprintf(stderr, "combine needs --inputs=prefixA,prefixB,...\n");
    return 2;
  }
  std::vector<std::string> prefixes;
  size_t pos = 0;
  while (pos <= inputs.size()) {
    const size_t comma = inputs.find(',', pos);
    const size_t end = comma == std::string::npos ? inputs.size() : comma;
    if (end > pos) prefixes.push_back(inputs.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  // Restore-and-merge each node's snapshots into fresh combiners.
  selectivity::EquiWidthHistogram histogram = MakeHistogram();
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch();
  for (const std::string& prefix : prefixes) {
    for (const auto& [est, suffix] :
         {std::pair<selectivity::SelectivityEstimator*, const char*>{&histogram,
                                                                     ".histogram"},
          {&sketch, ".wavelet"}}) {
      const std::string path = prefix + suffix;
      Result<io::FileSource> source = io::FileSource::Open(path);
      if (!source.ok()) {
        std::fprintf(stderr, "opening %s failed: %s\n", path.c_str(),
                     source.status().ToString().c_str());
        return 1;
      }
      Status merged = est->MergeFromSnapshot(*source);
      if (!merged.ok()) {
        std::fprintf(stderr, "merging %s failed: %s\n", path.c_str(),
                     merged.ToString().c_str());
        return 1;
      }
    }
  }

  // The single-process reference over the same stream.
  const std::vector<double> stream = SharedStream(n);
  selectivity::EquiWidthHistogram seq_histogram = MakeHistogram();
  selectivity::StreamingWaveletSelectivity seq_sketch = MakeSketch();
  seq_histogram.InsertBatch(stream);
  seq_sketch.InsertBatch(stream);

  stats::Rng query_rng(kQuerySeed);
  const std::vector<selectivity::Query> queries =
      selectivity::CenteredRangeWorkload(query_rng, 256, 0.0, 1.0, 0.02, 0.3);
  std::vector<double> merged_answers(queries.size());
  std::vector<double> seq_answers(queries.size());

  int violations = 0;
  const auto check = [&](const selectivity::SelectivityEstimator& merged,
                         const selectivity::SelectivityEstimator& sequential,
                         bool bit_exact) {
    merged.Answer(queries, merged_answers);
    sequential.Answer(queries, seq_answers);
    double max_err = 0.0;
    bool identical = merged.count() == sequential.count();
    for (size_t i = 0; i < queries.size(); ++i) {
      const double err = std::fabs(merged_answers[i] - seq_answers[i]);
      const double bound = 1e-12 * std::max(1.0, std::fabs(seq_answers[i]));
      max_err = std::max(max_err, err);
      identical = identical && merged_answers[i] == seq_answers[i];
      if (err > bound) ++violations;
    }
    if (bit_exact && !identical) ++violations;
    std::printf("%s: merged %zu rows, max |merged - sequential| = %.3e%s\n",
                merged.name().c_str(), merged.count(), max_err,
                bit_exact ? (identical ? " (bit-exact)" : " (BIT-EXACTNESS LOST)")
                          : "");
  };
  check(histogram, seq_histogram, /*bit_exact=*/true);
  check(sketch, seq_sketch, /*bit_exact=*/false);

  if (violations > 0) {
    std::fprintf(stderr, "cross-process merge contract VIOLATED (%d failures)\n",
                 violations);
    return 1;
  }
  std::printf("cross-process merge matches sequential ingest — contract holds\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "ingest") return RunIngest(argc, argv);
  if (mode == "combine") return RunCombine(argc, argv);
  std::fprintf(stderr,
               "usage: snapshot_merge_demo ingest --part=I --parts=P --out=PREFIX "
               "[--n=N]\n"
               "       snapshot_merge_demo combine --inputs=prefixA,prefixB [--n=N]\n");
  return 2;
}
