// DB scenario: streaming selectivity estimation for a query optimizer.
//
// A column's values arrive as a *dependent* stream (an autocorrelated
// process — think sensor readings or clustered inserts, not iid rows) with a
// sharply bimodal distribution. We maintain five streaming statistics side
// by side — the adaptive wavelet sketch (this library's estimator — bounded
// memory, cross-validated thresholds that adapt to the dependence),
// equi-width and equi-depth histograms, a reservoir sample and the classic
// Haar synopsis — every one built declaratively from an EstimatorSpec (the
// same description the snapshot registry and the benches use), and compare
// their answers on a range-query workload, including after a distribution
// drift. A mixed-kind section shows the typed query taxonomy: equality,
// one-sided, CDF and quantile probes through the one Answer() surface. The
// run ends with the persistence walkthrough (PR 4): checkpoint the sketch to
// disk, "kill" it, restore it through the snapshot registry without naming
// its type, and continue ingesting — the restored sketch answers
// bit-identically to a twin that was never killed.
//
//   build/examples/selectivity_stream
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "harness/cases.hpp"
#include "harness/table.hpp"
#include "processes/target_density.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "util/string_util.hpp"

int main() {
  using namespace wde;

  // The stream: logistic-map dynamics pushed through a bimodal marginal.
  auto density = std::make_shared<const processes::TruncatedGaussianMixtureDensity>(
      processes::TruncatedGaussianMixtureDensity::Bimodal());
  const processes::TransformedProcess stream =
      harness::MakeCase(harness::DependenceCase::kLogisticMap, density);

  // Declarative construction: one EstimatorSpec per estimator, built through
  // the same tag -> factory registry that restores snapshots. The shared
  // fields (domain, pacing) are set once; each tag consumes what it needs.
  const auto build = [](const char* tag, auto configure) {
    selectivity::EstimatorSpec spec;
    spec.tag = tag;
    spec.buckets = 32;
    spec.budget = 32;  // synopsis: comparable space to the 32-bucket histograms
    spec.capacity = 512;
    configure(spec);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> est =
        selectivity::MakeEstimator(spec);
    WDE_CHECK(est.ok(), "example specs are valid");
    return std::move(est).value();
  };
  std::unique_ptr<selectivity::SelectivityEstimator> sketch =
      build("wavelet-cv", [](selectivity::EstimatorSpec& spec) {
        spec.j0 = 2;
        spec.j_max = 10;
        spec.refit_interval = 2048;
      });
  std::unique_ptr<selectivity::SelectivityEstimator> equi_width_ptr =
      build("equi-width", [](selectivity::EstimatorSpec&) {});
  std::unique_ptr<selectivity::SelectivityEstimator> equi_depth_ptr =
      build("equi-depth", [](selectivity::EstimatorSpec&) {});
  std::unique_ptr<selectivity::SelectivityEstimator> reservoir_ptr =
      build("reservoir", [](selectivity::EstimatorSpec&) {});
  std::unique_ptr<selectivity::SelectivityEstimator> synopsis =
      build("haar-synopsis", [](selectivity::EstimatorSpec&) {});
  selectivity::SelectivityEstimator& equi_width = *equi_width_ptr;
  selectivity::SelectivityEstimator& equi_depth = *equi_depth_ptr;
  selectivity::SelectivityEstimator& reservoir = *reservoir_ptr;

  stats::Rng rng(7);
  const size_t kStreamLength = 16384;
  const std::vector<double> values = stream.Sample(kStreamLength, rng);
  // Rows arrive in batches in a real optimizer's statistics pipeline; the
  // batch entry point amortizes the per-sample table setup (and for the
  // baselines falls back to the scalar loop).
  sketch->InsertBatch(values);
  equi_width.InsertBatch(values);
  equi_depth.InsertBatch(values);
  reservoir.InsertBatch(values);
  synopsis->InsertBatch(values);
  std::printf("ingested %zu dependent stream values (logistic-map driven)\n\n",
              kStreamLength);

  // A short-range-scan workload; ground truth from the generating density.
  const std::vector<selectivity::Query> queries =
      selectivity::CenteredRangeWorkload(rng, 400, 0.0, 1.0, 0.02, 0.25);
  const auto truth = [&](const selectivity::Query& q) {
    return density->Cdf(q.b) - density->Cdf(q.a);
  };

  harness::TextTable table(
      {"estimator", "mean |err|", "rmse", "mean q-error", "max q-error"});
  const auto add = [&](const selectivity::SelectivityEstimator& est) {
    const selectivity::SelectivityAccuracy acc =
        selectivity::EvaluateAccuracy(est, queries, truth);
    table.AddRow({est.name(), Format("%.5f", acc.mean_abs_error),
                  Format("%.5f", acc.rmse), Format("%.2f", acc.mean_qerror),
                  Format("%.1f", acc.max_qerror)});
  };
  add(*sketch);
  add(equi_width);
  add(equi_depth);
  add(reservoir);
  add(*synopsis);
  table.Print(std::cout);

  // -- the typed query taxonomy: one Answer() surface for every kind --
  //
  // Real optimizer traffic mixes equality, one-sided and CDF probes (and
  // planners invert CDFs for histogram-free quantile stats) over the same
  // fitted state. NaN parameters answer 0.0 by contract, like Insert drops
  // NaN.
  std::printf("\n-- mixed-kind probes through Answer() (wavelet sketch) --\n");
  const std::vector<selectivity::Query> probes{
      selectivity::Query::Range(0.25, 0.35),
      selectivity::Query::Point(0.3),
      selectivity::Query::Less(0.5),
      selectivity::Query::Greater(0.5),
      selectivity::Query::Cdf(0.62),
      selectivity::Query::Quantile(0.25),
      selectivity::Query::Range(std::nan(""), 0.5),
  };
  std::vector<double> probe_answers(probes.size());
  sketch->Answer(probes, probe_answers);
  std::printf("P(0.25<=X<=0.35) = %.4f   (truth %.4f)\n", probe_answers[0],
              density->Cdf(0.35) - density->Cdf(0.25));
  std::printf("P(X=0.3)         = %.6f  (one resolution cell, width %.4g)\n",
              probe_answers[1], sketch->EqualityWidth());
  std::printf("P(X<=0.5)        = %.4f   (truth %.4f)\n", probe_answers[2],
              density->Cdf(0.5));
  std::printf("P(X>=0.5)        = %.4f\n", probe_answers[3]);
  std::printf("F(0.62)          = %.4f   (truth %.4f)\n", probe_answers[4],
              density->Cdf(0.62));
  std::printf("F^-1(0.25)       = %.4f   (truth %.4f)\n", probe_answers[5],
              density->InverseCdf(0.25));
  std::printf("range with NaN   = %.1f     (dirty queries answer 0.0)\n",
              probe_answers[6]);

  // Drift: the workload moves to a narrow hot range; the sketch refits.
  std::printf("\n-- drift: stream jumps to U(0.45, 0.55) --\n");
  for (int i = 0; i < 32768; ++i) {
    const double v = rng.Uniform(0.45, 0.55);
    sketch->Insert(v);
    equi_width.Insert(v);
  }
  const selectivity::Query hot = selectivity::Query::Range(0.45, 0.55);
  std::printf("P(0.45 <= X <= 0.55) after drift: wavelet %.3f, equi-width %.3f "
              "(stationary truth was %.3f)\n",
              sketch->Answer(hot), equi_width.Answer(hot),
              density->Cdf(0.55) - density->Cdf(0.45));
  std::printf("\nthe wavelet sketch used %zu inserts, no buffered rows, and "
              "cross-validated its own smoothing.\n",
              sketch->count());

  // -- persistence walkthrough: checkpoint -> kill -> restore -> continue --
  //
  // The fitted sketch is a storable artifact: snapshot it to disk, drop the
  // live object (a node restart), restore it through the registry (the
  // snapshot is self-describing — no concrete type is named here), and keep
  // ingesting. A twin that was never killed proves the restore is lossless.
  std::printf("\n-- checkpoint -> kill -> restore -> continue --\n");
  const std::string snapshot_path = "selectivity_stream.snapshot";
  if (Status saved = selectivity::SaveEstimatorSnapshotFile(*sketch, snapshot_path);
      !saved.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("checkpointed %zu-insert sketch to %s\n", sketch->count(),
              snapshot_path.c_str());

  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored =
      selectivity::LoadEstimatorSnapshotFile(snapshot_path);
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::remove(snapshot_path.c_str());

  // Both survivors see the same post-restart traffic: the stream drifts back
  // to the original bimodal marginal.
  std::vector<double> resumed = stream.Sample(8192, rng);
  sketch->InsertBatch(resumed);        // the never-killed twin
  (*restored)->InsertBatch(resumed);   // the restored node
  const selectivity::Query probe = selectivity::Query::Range(0.1, 0.3);
  const double twin = sketch->Answer(probe);
  const double revived = (*restored)->Answer(probe);
  std::printf("P(0.1 <= X <= 0.3) after 8192 more rows: twin %.6f, restored %.6f "
              "(bit-identical: %s)\n",
              twin, revived, twin == revived ? "yes" : "NO");
  std::printf("restored estimator: %s with %zu inserts\n",
              (*restored)->name().c_str(), (*restored)->count());
  return twin == revived ? 0 : 1;
}
