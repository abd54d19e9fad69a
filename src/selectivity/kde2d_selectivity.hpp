#ifndef WDE_SELECTIVITY_KDE2D_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_KDE2D_SELECTIVITY_HPP_

#include <optional>
#include <span>
#include <vector>

#include "kernel/kernels.hpp"
#include "memory/arena.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// Product/adaptive 2-D KDE in the ProdAdaKde2d style: per-dimension
/// Epanechnikov bandwidths from the paper's rule of thumb (optionally
/// refined by least-squares CV on a deterministic subsample), sharpened per
/// point by Abramson-style adaptive factors λ_i from a binned pilot density
/// (multidim/prod_kde2d.hpp). Every rectangle answers as
///   (1/n) Σ_i [axis-0 kernel-CDF difference] · [axis-1 kernel-CDF difference]
/// over an x-window binary-searched out of the lex-sorted fitted sample —
/// bit-exact pruning thanks to the kernel's compact support — with the
/// per-axis CDF arguments running through the SIMD-annotated CdfMany batch
/// kernels. 1-D kinds lower onto the axis-0 marginal
/// EstimateRangeImpl(a, b) = EstimateRectImpl(a, b, -inf, +inf).
///
/// Ingest is interleaved (x0, y0, x1, y1, ...): the first coordinate of an
/// observation is buffered raw, the second completes it — the whole
/// observation is dropped if EITHER coordinate is non-finite (dropping one
/// value alone would shift the interleave parity), otherwise each
/// coordinate clamps to its axis domain. count() reports complete
/// observations.
///
/// Mergeable: the coordinate buffers concatenate and the KDE refits from
/// the merged buffers. Answers depend only on the *multiset* of
/// observations — the fitted state is a function of the lex-sorted
/// coordinate arrays — so merges in any order answer bit-identically to
/// sequential ingest of the same multiset. A peer's pending half-observation
/// is not data and does not travel.
///
/// Refits honor Options::refit_mode: kScratch re-sorts everything per
/// refit; kIncremental (the default) reuses the previous fitted arrays as a
/// lex-sorted prefix, sorts only the appended tail and merges —
/// O(Δ log Δ + n) instead of O(n log n), bitwise-identical answers
/// (refit_equivalence_test). Every refit builds a fresh arena: fitted
/// columns may be shared with CloneForView copies, and are never mutated in
/// place. The adaptive factors
/// and bandwidths are recomputed O(n) per refit in BOTH modes — they are
/// global functions of the sorted sample, not mergeable state; the
/// incremental win is the sort, not the fit.
class Kde2dSelectivity : public SelectivityEstimator {
 public:
  struct Options {
    double domain_lo0 = 0.0;
    double domain_hi0 = 1.0;
    double domain_lo1 = 0.0;
    double domain_hi1 = 1.0;
    size_t refit_interval = 1024;
    /// Adaptive-bandwidth sensitivity α ∈ [0, 1]: λ_i = (pilot_i/ḡ)^(−α)
    /// clamped to [1/4, 4]; 0 disables adaptivity (λ ≡ 1).
    double alpha = 0.5;
    /// Refine the per-dimension rule-of-thumb bandwidths with a
    /// least-squares CV pass over a deterministic subsample (≤ 512 points,
    /// evenly strided out of the sorted sample, result rescaled by
    /// (m/n)^{1/5}).
    bool cv_bandwidths = false;
    /// How refits rebuild the lex-sorted sample (see the class comment). A
    /// pacing knob like refit_interval: not serialized, not part of the
    /// merge-compatibility key; snapshot restore preserves the live mode.
    RefitMode refit_mode = RefitMode::kIncremental;
  };

  explicit Kde2dSelectivity(const Options& options);

  void Insert(double x) override;

  size_t count() const override { return xs_.size(); }
  std::string name() const override { return "kde2d-prod"; }

  /// Same convention as the 1-D KDE: the declared resolution is the static
  /// axis-0 domain fraction 1/1024, so point-query answers do not change
  /// meaning across refits.
  double EqualityWidth() const override {
    return (options_.domain_hi0 - options_.domain_lo0) / 1024.0;
  }
  RangeQuery Domain() const override {
    return RangeQuery{options_.domain_lo0, options_.domain_hi0};
  }
  int dims() const override { return 2; }

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Appends `other`'s observations and invalidates the fitted state;
  /// requires identical domains, α and CV setting (they shape answers, not
  /// just pacing). The peer's pending coordinate is ignored — see the class
  /// comment.
  Status MergeFrom(const SelectivityEstimator& other) override;
  /// Tail-merge support for the sharded incremental merged-view refresh:
  /// appends only other's observations from `from_count` onward and leaves
  /// the fitted state intact (stale) for the next refit to delta-merge.
  bool SupportsTailMerge() const override { return true; }
  Status MergeTailFrom(const SelectivityEstimator& other,
                       size_t from_count) override;
  WDE_SELECTIVITY_MERGE_TAG()
  const char* snapshot_type_tag() const override { return "kde2d-prod"; }

  /// The copy shares the fitted arena (sorted coordinates, adaptive
  /// factors) copy-on-write; refits never mutate shared columns.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::make_unique<Kde2dSelectivity>(*this);
  }

 protected:
  /// The axis-0 marginal: EstimateRectImpl(a, b, -inf, +inf).
  double EstimateRangeImpl(double a, double b) const override;
  /// clamp((1/n) · product-kernel rectangle sum); exact-fraction fallback
  /// below the minimum fit sample (or under degenerate bandwidths).
  double EstimateRectImpl(double lo0, double hi0, double lo1,
                          double hi1) const override;
  Status SaveStateImpl(io::Sink& sink) const override;
  Status LoadStateImpl(io::Source& source) override;

  /// Refits whenever any unfitted tail exists (not just past the interval),
  /// so a quiesced estimator is fitted at its full count.
  void ForceRefitImpl() const override;

 private:
  /// The fitted state: one arena of four parallel F64 columns starting at
  /// `col0` — sx/sy (lex-sorted coordinates), ty (the ascending-sorted
  /// axis-1 shadow the bandwidth rule reads), λ (adaptive factors) — plus
  /// the derived scalars. Never mutated after commit; copies share the
  /// arena copy-on-write.
  struct Fitted {
    memory::Arena arena;
    size_t col0 = 0;
    size_t n = 0;
    double hx = 0.0;
    double hy = 0.0;
    double lambda_max = 1.0;

    std::span<const double> sx() const { return arena.F64(col0 + 0); }
    std::span<const double> sy() const { return arena.F64(col0 + 1); }
    std::span<const double> ty() const { return arena.F64(col0 + 2); }
    std::span<const double> lambdas() const { return arena.F64(col0 + 3); }
  };

  void RefitIfStale() const;
  /// Unconditional refit at the current count, honoring refit_mode.
  void Refit() const;
  /// Builds the fitted state over the observation prefix [0, fit_n):
  /// lex-sort (delta-merged off `prev` when given), the sorted axis-1
  /// shadow, rule-of-thumb (+ optional CV) bandwidths, adaptive factors.
  /// Empty on degenerate bandwidths (all-equal coordinates) — callers then
  /// keep serving the previous fit or the exact-fraction fallback. A
  /// deterministic function of the observation prefix multiset, so snapshot
  /// restore reproduces the saved fit bit-exactly by re-running it.
  std::optional<Fitted> BuildFit(size_t fit_n, const Fitted* prev) const;

  Options options_;
  kernel::Kernel kernel_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  bool have_pending_ = false;
  double pending_ = 0.0;  // raw first coordinate of a half-received observation
  mutable std::optional<Fitted> fitted_;
  mutable size_t fitted_at_count_ = 0;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_KDE2D_SELECTIVITY_HPP_
