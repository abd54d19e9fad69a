#ifndef WDE_CORE_COEFFICIENTS_HPP_
#define WDE_CORE_COEFFICIENTS_HPP_

#include <span>
#include <vector>

#include "io/serialize.hpp"
#include "memory/arena.hpp"
#include "util/result.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace core {

/// Per-level running sums for the empirical wavelet coefficients of data on
/// the unit interval. For every translation k the structure maintains
///   S1_k = Σ_i δ_{j,k}(X_i)   and   S2_k = Σ_i δ_{j,k}(X_i)²,
/// where δ is φ (scaling level) or ψ (detail levels). These two sums are
/// sufficient statistics for BOTH the coefficient estimates
/// (β̂_{j,k} = S1_k/n) and the HTCV/STCV cross-validation criteria
/// (which need Σ_{i≠h} δ(X_i)δ(X_h) = S1² − S2), so the whole adaptive
/// estimator is streaming-updatable — the property the selectivity layer
/// builds on.
///
/// The sums are views into the owning accumulator's columnar arena (two
/// 64-byte-aligned columns per level): flat element-wise buffers the merge
/// loop vectorizes over.
struct CoefficientLevel {
  int j = 0;
  bool is_scaling = false;
  int k_lo = 0;  // first translation index
  std::span<double> s1;
  std::span<double> s2;

  int size() const { return static_cast<int>(s1.size()); }
  int k_hi() const { return k_lo + size() - 1; }
  bool Contains(int k) const { return k >= k_lo && k <= k_hi(); }
};

/// Empirical coefficients of a sample on [0, 1]: one scaling level j0 and
/// detail levels j0..j_max. Insertion costs O((j_max − j0 + 2) · L) table
/// lookups per sample.
class EmpiricalCoefficients {
 public:
  /// Fails if the level range is invalid.
  static Result<EmpiricalCoefficients> Create(wavelet::WaveletBasis basis, int j0,
                                              int j_max);

  /// Adds one observation; x must lie in [0, 1] (checked).
  void Add(double x);

  /// Batch entry: equivalent to calling Add(x) for each x in order — the
  /// running sums come out bit-identical — but runs one pass per level with
  /// the scale/translate/table setup hoisted out of the sample loop, instead
  /// of one pass per sample. This is the streaming hot path; the
  /// `insert_only` rows of `perf_ingest` (BENCH_ingest.json) time it per
  /// value and check it bitwise against Add. An empty span is an explicit
  /// no-op.
  void AddAll(std::span<const double> xs);

  /// Folds another accumulator into this one: element-wise S1/S2 sums and
  /// count addition. Because (S1, S2, n) are additive sufficient statistics,
  /// Merge of accumulators over disjoint sub-streams equals one accumulator
  /// over the concatenated stream up to floating-point summation order
  /// (each slot adds a per-shard subtotal instead of per-sample terms), so
  /// coefficient estimates agree to ~1e-12 relative — the mergeability
  /// contract the sharded selectivity engine is built on. Fails (leaving
  /// this accumulator untouched) when the wavelet filter or the [j0, j_max]
  /// level range differ; merging an empty accumulator is an exact no-op.
  Status Merge(const EmpiricalCoefficients& other);

  /// Writes the complete accumulator state — the basis identity (filter name
  /// + table resolution), the level range, and every level's S1/S2 running
  /// sums — as the io module's endianness-explicit primitives. The sums
  /// travel as IEEE bit patterns, so Serialize→Deserialize round trips are
  /// bit-exact and a restored accumulator is merge-compatible with (and
  /// answers identically to) the original.
  Status Serialize(io::Sink& sink) const;

  /// Restores an accumulator written by Serialize: rebuilds the basis from
  /// its identity, re-derives the level windows, and validates the stored
  /// level geometry against them — corrupt or truncated input yields a
  /// non-OK Result, never UB.
  static Result<EmpiricalCoefficients> Deserialize(io::Source& source);

  size_t count() const { return count_; }
  int j0() const { return j0_; }
  int j_max() const { return j_max_; }
  const wavelet::WaveletBasis& basis() const { return basis_; }

  const CoefficientLevel& scaling_level() const { return scaling_; }
  /// Detail level j (j0 <= j <= j_max).
  const CoefficientLevel& detail_level(int j) const;

  /// α̂_{j0,k}; 0 for k outside the tracked window.
  double AlphaHat(int k) const;
  /// β̂_{j,k}; 0 for k outside the tracked window.
  double BetaHat(int j, int k) const;

  /// The per-coefficient contribution to the CV criterion (paper §5.1):
  ///   β̂² − 2/(n(n−1)) Σ_{i≠h} ψ_{j,k}(X_i) ψ_{j,k}(X_h)
  /// = β̂² − 2 (S1² − S2)/(n(n−1)).
  double CrossValidationTerm(int j, int k) const;

  /// Copies share the sums arena copy-on-write (publishing an immutable view
  /// of an accumulator costs O(levels), not O(coefficients)); the first
  /// mutation through Add/AddAll/Merge un-shares it.
  EmpiricalCoefficients(const EmpiricalCoefficients& other);
  EmpiricalCoefficients& operator=(const EmpiricalCoefficients& other);
  EmpiricalCoefficients(EmpiricalCoefficients&&) noexcept = default;
  EmpiricalCoefficients& operator=(EmpiricalCoefficients&&) noexcept = default;

 private:
  EmpiricalCoefficients(wavelet::WaveletBasis basis, int j0, int j_max);

  /// Un-shares the sums arena (CoW) and rebinds every level's spans; must
  /// run before any mutation of s1/s2.
  void EnsureOwnedSums();
  /// Points the level spans at the current arena storage.
  void BindLevels();

  void AddToLevel(CoefficientLevel* level, double x);
  void AccumulateLevel(CoefficientLevel* level, std::span<const double> xs);

  wavelet::WaveletBasis basis_;
  int j0_;
  int j_max_;
  size_t count_ = 0;
  /// Columns: [scaling s1, scaling s2, detail_{j0} s1, detail_{j0} s2, ...].
  memory::Arena sums_;
  CoefficientLevel scaling_;
  std::vector<CoefficientLevel> details_;  // index j - j0
};

/// The paper's default primary resolution: smallest integer > ln(n)/(1 + N)
/// where N is the wavelet regularity (Theorem 3.1 / §5.1).
int DefaultPrimaryLevel(size_t n, int vanishing_moments);

/// The cross-validation top level j* = log2(n) (§5.1), i.e. floor(log2 n).
int DefaultTopLevel(size_t n);

/// Writes the identity of a basis — filter name + cascade table resolution —
/// so a reader can rebuild bit-identical tables (within one platform; see
/// wavelet::WaveletFilter::FromName). Shared by every core serializer.
Status SerializeBasisId(const wavelet::WaveletBasis& basis, io::Sink& sink);

/// Rebuilds a basis from its serialized identity.
Result<wavelet::WaveletBasis> DeserializeBasisId(io::Source& source);

}  // namespace core
}  // namespace wde

#endif  // WDE_CORE_COEFFICIENTS_HPP_
