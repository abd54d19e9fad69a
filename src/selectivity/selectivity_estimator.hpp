/// \file selectivity/selectivity_estimator.hpp
/// Entry header of the `selectivity` module: the streaming interface every
/// selectivity estimator implements (wavelet sketch, wavelet synopsis, KDE,
/// equi-width/equi-depth histograms, reservoir sample) — the paper's
/// motivating database application. The public query surface is the typed
/// `Query` taxonomy answered through the single non-virtual `Answer()` entry
/// point: closed ranges, equality points, one-sided predicates, CDF probes
/// and quantiles — plus, for estimators that declare dims() > 1, axis-aligned
/// rectangles, per-axis marginals and conditional probes (src/multidim holds
/// the 2-D implementations) — the query family a real optimizer mixes over
/// one fitted statistic. Invariants: Insert() never throws or aborts on dirty
/// data
/// (non-finite values are dropped, out-of-domain values clamped); mass-kind
/// answers approximate probabilities in [0, 1] up to estimator bias; all
/// edge-case normalization (inverted ranges, NaN parameters, quantile levels
/// outside [0, 1]) happens ONCE in the non-virtual Answer(), so no
/// implementation can drift on it. The scalar virtuals
/// (Insert/EstimateRangeImpl) are the minimal extension point; `AnswerImpl`
/// is the batch extension point (defaulting to the documented lowering of
/// every kind onto EstimateRangeImpl) and overrides must stay bit-identical
/// to that lowering (enforced by batch_equivalence_test and
/// query_taxonomy_test). Implementations are not thread-safe (wrap in
/// ShardedSelectivityEstimator or externally). Estimators whose state is
/// additive additionally implement the mergeability contract
/// (CloneEmpty/MergeFrom), which the sharded parallel ingest engine builds
/// on, and every shipped estimator implements the snapshot contract
/// (SaveState/LoadState over the versioned wire format of io/chunk.hpp),
/// which makes fitted state a storable, shippable artifact — restore is
/// bit-exact and merge-compatible. Estimators are constructed declaratively
/// from an `EstimatorSpec` (estimator_spec.hpp) through the spec-aware
/// factory registry (estimator_registry.hpp).
#ifndef WDE_SELECTIVITY_SELECTIVITY_ESTIMATOR_HPP_
#define WDE_SELECTIVITY_SELECTIVITY_ESTIMATOR_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "io/serialize.hpp"
#include "util/check.hpp"
#include "util/result.hpp"

namespace wde {
namespace selectivity {

class SelectivityEstimator;

namespace internal {
/// Chunk tags of the estimator envelope (see io/chunk.hpp for the framing),
/// always in this order: TYPE names the concrete estimator; DIMS holds its
/// dimensionality (u32, 1-D included), so a reader rejects a mismatch
/// before parsing any state; STAT holds the estimator's own configuration
/// and data as portable little-endian io primitives.
inline constexpr uint32_t kChunkEstimatorType = 0x45505954;   // "TYPE"
inline constexpr uint32_t kChunkEstimatorDims = 0x534D4944;   // "DIMS"
inline constexpr uint32_t kChunkEstimatorState = 0x54415453;  // "STAT"

/// Snapshot-load check for histogram-style state: true when every entry of
/// `counts` is a non-negative integer and they sum to exactly `total` — the
/// only count tables Insert and MergeFrom can produce.
bool IsCountTable(std::span<const double> counts, uint64_t total);

/// The one domain rule of spec validation, constructors and snapshot
/// loaders: finite lo < hi whose width hi − lo is finite too. Every tag maps
/// values through (x − lo) / (hi − lo), which an infinite width collapses
/// to 0.
bool IsDomain(double lo, double hi);
}  // namespace internal

/// Restores one estimator envelope through the tag → factory registry; see
/// estimator_registry.hpp (declared here only for the friend grant below).
Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorEnvelope(
    io::Source& source);

/// A closed interval [lo, hi] of the value axis: what Domain() declares and
/// what LowerToRange() lowers a 1-D mass query to. Not a query — every
/// question goes through Query and Answer().
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// The query taxonomy: what a query optimizer asks a column statistic. The
/// first six kinds are 1-D (they read fields a/b only); the multi-dimensional
/// kinds additionally read c/d/axis and are answered by estimators that
/// declare dims() > 1 (a 1-D estimator answers them 0.0, except the axis-0
/// marginal, which IS its range primitive).
enum class QueryKind : uint8_t {
  kRange = 0,        // P(lo <= X <= hi)
  kPoint = 1,        // P(X = x), answered via the equality-width heuristic
  kLess = 2,         // P(X <= c)
  kGreater = 3,      // P(X >= c)
  kCdf = 4,          // F(x) = P(X <= x) (alias of kLess; spelled for intent)
  kQuantile = 5,     // F^{-1}(p): the value x with F(x) ≈ p
  kRect = 6,         // P(lo0 <= X0 <= hi0, lo1 <= X1 <= hi1)
  kMarginal = 7,     // P(lo <= X_axis <= hi), other axes integrated out
  kConditional = 8,  // P(lo0 <= X0 <= hi0 | lo1 <= X1 <= hi1)
};

/// A tagged query. `a` carries the single parameter of every 1-D kind (x, c,
/// or p); ranges additionally use `b` as the upper endpoint. The
/// multi-dimensional kinds use a/b as the axis-0 interval, c/d as the axis-1
/// interval, and `axis` to select a marginal axis. Build queries with the
/// named factories — they document which field means what.
///
/// Semantics are fixed at the interface (see Answer() for the normalization
/// and the lowering rules):
///   Range(lo, hi)  — mass of [lo, hi]; inverted endpoints denote [hi, lo].
///   Point(x)       — equality mass, answered as the narrow range
///                    [x - w/2, x + w/2] with w = EqualityWidth() (the
///                    estimator's resolution; w = 0 means exact match).
///   Less(c)        — mass of (-inf, c];  Greater(c) — mass of [c, +inf).
///   Cdf(x)         — identical lowering to Less(x).
///   Quantile(p)    — inverse CDF at p in [0, 1] (out-of-range p clamps),
///                    bracketed by Domain() and found by bisection.
///   Rect(lo0, hi0, lo1, hi1)
///                  — mass of the axis-aligned rectangle
///                    [lo0, hi0] × [lo1, hi1]; each axis's inverted endpoints
///                    swap independently; ±inf endpoints denote half-planes.
///   Marginal(axis, lo, hi)
///                  — mass of [lo, hi] on one axis with every other axis
///                    integrated out. Axis 0 coincides with Range(lo, hi) for
///                    every estimator (1-D included); an axis >= dims()
///                    answers 0.0.
///   Conditional(lo0, hi0, lo1, hi1)
///                  — P(X0 ∈ [lo0, hi0] | X1 ∈ [lo1, hi1]): the rect mass
///                    over the axis-1 marginal mass, clamped to [0, 1]; a
///                    zero-mass condition answers 0.0.
struct Query {
  QueryKind kind = QueryKind::kRange;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;
  uint8_t axis = 0;

  static constexpr Query Range(double lo, double hi) {
    return Query{QueryKind::kRange, lo, hi};
  }
  static constexpr Query Point(double x) { return Query{QueryKind::kPoint, x, 0.0}; }
  static constexpr Query Less(double c) { return Query{QueryKind::kLess, c, 0.0}; }
  static constexpr Query Greater(double c) {
    return Query{QueryKind::kGreater, c, 0.0};
  }
  static constexpr Query Cdf(double x) { return Query{QueryKind::kCdf, x, 0.0}; }
  static constexpr Query Quantile(double p) {
    return Query{QueryKind::kQuantile, p, 0.0};
  }
  static constexpr Query Rect(double lo0, double hi0, double lo1, double hi1) {
    return Query{QueryKind::kRect, lo0, hi0, lo1, hi1};
  }
  static constexpr Query Marginal(uint8_t axis, double lo, double hi) {
    return Query{QueryKind::kMarginal, lo, hi, 0.0, 0.0, axis};
  }
  static constexpr Query Conditional(double lo0, double hi0, double lo1,
                                     double hi1) {
    return Query{QueryKind::kConditional, lo0, hi0, lo1, hi1};
  }
};

/// How an estimator rebuilds its fitted caches when they go stale.
///   kScratch     — re-derive everything from the raw retained state (full
///                  sort, full CV scan, CloneEmpty + K merges). The oracle:
///                  slow, trivially correct, retained for tests and benches.
///   kIncremental — delta-merge the previous fitted state (sort only the new
///                  tail and merge, warm-start CV from the previous ranking,
///                  tail-append replica deltas). Answers are bitwise-identical
///                  to kScratch — the standing contract, enforced by
///                  refit_equivalence_test — only the refit cost changes.
/// The mode is an evaluation/pacing knob like the thread pool: it is NOT
/// serialized, and snapshot restore preserves the live object's mode.
enum class RefitMode : uint8_t {
  kScratch = 0,
  kIncremental = 1,
};

/// A streaming estimator of selectivity over a single numeric attribute:
/// after observing values x_1..x_n, Answer() approximates the probability
/// (or quantile) each Query denotes — what a query optimizer expects
/// `WHERE`-predicates over the column to select.
///
/// Implementations are single-writer/single-reader and not thread-safe;
/// wrap externally if shared. `ShardedSelectivityEstimator` is the provided
/// wrapper that partitions ingest across replicas on a thread pool and
/// answers queries from merged state.
class SelectivityEstimator {
 public:
  virtual ~SelectivityEstimator() = default;

  /// Ingests one value. Values outside the declared domain are clamped and
  /// non-finite values (NaN/±inf) are silently dropped — an optimizer must
  /// tolerate dirty input rather than abort.
  virtual void Insert(double x) = 0;

  /// Ingests a batch. Semantically identical to calling Insert(x) for each
  /// element in order (and bit-identical in the estimator's observable
  /// answers); overrides amortize per-sample dispatch and table setup. An
  /// empty span (including a zero-length span over null data) is a no-op;
  /// overrides must preserve that fast path.
  virtual void InsertBatch(std::span<const double> xs) {
    if (xs.empty()) return;
    for (double x : xs) Insert(x);
  }

  // ------------------------------------------------------------ query surface
  //
  // One entry point for every query kind. Answer() is non-virtual: the
  // edge-case normalization lives here, once, uniformly across every
  // implementation, so AnswerImpl always sees normalized queries:
  //   * NaN in any query parameter answers 0.0 — the documented dirty-query
  //     sibling of Insert() dropping NaN — and never reaches an
  //     implementation. ±inf endpoints are legal (they denote the one-sided
  //     limits and clamp against the estimator's domain).
  //   * Inverted ranges (a > b) are swapped: one documented choice —
  //     Range(a, b) with a > b denotes the same predicate as [b, a]. Rect and
  //     conditional intervals swap per axis, independently.
  //   * Quantile levels are clamped to [0, 1].
  // Normalization never copies the whole batch: already-normalized runs are
  // handed to AnswerImpl as sub-spans of the caller's storage and only the
  // rare abnormal query is rewritten on the stack.

  /// Answers a query batch: out[i] answers queries[i], bit-identical to
  /// answering each query alone. Spans must match; an empty batch is a no-op.
  void Answer(std::span<const Query> queries, std::span<double> out) const;

  /// Scalar convenience overload.
  double Answer(const Query& query) const {
    double out = 0.0;
    Answer(std::span<const Query>(&query, 1), std::span<double>(&out, 1));
    return out;
  }

  /// Width of the equality interval a Point(x) query denotes: the
  /// estimator's declared resolution (bucket width, grid cell, finest
  /// wavelet cell, ...). The interface default 0 degenerates the lowering to
  /// the exact-match range [x, x] — the natural answer for sample-based
  /// estimators; continuous estimators override with their resolution.
  virtual double EqualityWidth() const { return 0.0; }

  /// The estimator's declared value domain [lo, hi]: the interval inserts
  /// are clamped to and quantile answers are bracketed by. The interface
  /// default is the library-wide default domain [0, 1]; estimators with
  /// configurable domains override. (The reservoir sample, which declares no
  /// domain, reports the span of its current sample.)
  virtual Interval Domain() const { return Interval{0.0, 1.0}; }

  virtual size_t count() const = 0;
  virtual std::string name() const = 0;

  /// The number of attributes this estimator models. Inserts of a dims() == D
  /// estimator consume D consecutive stream values per observation
  /// (interleaved coordinates: x0, x1, x0, x1, ...); count() reports complete
  /// observations. The interface default 1 keeps every existing estimator —
  /// and every existing answer — untouched; multi-dimensional estimators
  /// override, which routes kRect/kMarginal/kConditional queries to
  /// EstimateRectImpl (see AnswerMultiDim for the exact lowering).
  virtual int dims() const { return 1; }

  /// Brings every lazily fitted cache up to date with the data inserted so
  /// far, exactly as the first query of a batch would (see the AnswerImpl
  /// contract) — but without answering anything. Idempotent; a no-op for
  /// estimators with no lazy state. Tests use it to quiesce an estimator
  /// before bitwise comparisons, and the serving publish path uses it to pay
  /// refit cost at publish time instead of on a reader's first query.
  void ForceRefit() const { ForceRefitImpl(); }

  // ------------------------------------------------------------ mergeability
  //
  // Estimators whose internal state is additive (coefficient running sums,
  // bin counts, sample buffers) support partition-then-combine: build one
  // replica per shard with CloneEmpty(), ingest disjoint sub-streams, then
  // fold the replicas together with MergeFrom(). The contract: merging
  // replicas over disjoint sub-streams answers queries like one estimator
  // over the concatenated stream — exactly for integer-count state
  // (histograms, synopsis grids), to ~1e-12 relative for floating-point sums
  // (the wavelet sketch). Estimators without an additive representation
  // (e.g. the reservoir sample, whose unbiased merge needs fresh randomness)
  // report unsupported: CloneEmpty() returns nullptr and MergeFrom() fails.

  /// True when this estimator supports CloneEmpty()/MergeFrom().
  bool mergeable() const { return merge_type_tag() != nullptr; }

  /// A fresh estimator of the same concrete type and configuration with no
  /// data, or nullptr when the estimator does not support merging.
  virtual std::unique_ptr<SelectivityEstimator> CloneEmpty() const {
    return nullptr;
  }

  /// Folds `other`'s state into this estimator. Fails (leaving this
  /// estimator untouched) when merging is unsupported, when `other` is a
  /// different concrete type, or when the configurations are incompatible
  /// (different domain, resolution, level range, ...).
  virtual Status MergeFrom(const SelectivityEstimator& other) {
    (void)other;
    return Status::FailedPrecondition(name() + " does not support MergeFrom");
  }

  // The delta-merge refinement of MergeFrom, for estimators whose merged
  // state is a buffer that only ever appends (KDE samples, equi-depth
  // retained values): after a full MergeFrom(*peer) at some earlier point,
  // MergeTailFrom(*peer, from_count) folds in only peer's values appended
  // since `from_count` — WITHOUT resetting this estimator's fitted caches,
  // so a subsequent ForceRefit() pays only the delta. The sharded engine's
  // incremental merged-view refresh builds on this with per-replica
  // high-water marks. Estimators whose state is additive sums (wavelet
  // coefficients, bin counts) do NOT support it: a+b-a != b bitwise, and
  // their full MergeFrom is already O(state), so they fall back to the full
  // rebuild.

  /// True when this estimator supports MergeTailFrom().
  virtual bool SupportsTailMerge() const { return false; }

  /// Appends `other`'s state from index `from_count` onward into this
  /// estimator, leaving fitted caches intact (stale, to be refreshed by the
  /// next refit). Requires from_count <= other.count() (else
  /// InvalidArgument) and passes the same peer checks as MergeFrom
  /// (self-merge and type mismatches rejected). The buffer-keeping
  /// estimators keep arrival order only in their unfitted tail, so they also
  /// require from_count >= other's fitted-prefix size (else
  /// FailedPrecondition); a failed call leaves this estimator untouched.
  virtual Status MergeTailFrom(const SelectivityEstimator& other,
                               size_t from_count) {
    (void)other;
    (void)from_count;
    return Status::FailedPrecondition(name() + " does not support MergeTailFrom");
  }

  /// Identity of the concrete type for MergeFrom compatibility checks
  /// without an RTTI requirement: mergeable estimators return the address of
  /// a class-local static (see WDE_SELECTIVITY_MERGE_TAG), so equal tags
  /// guarantee a static_cast in MergeFrom is sound. nullptr means merging is
  /// unsupported. Public because an implementation must read it through a
  /// base-class reference.
  virtual const void* merge_type_tag() const { return nullptr; }

  // -------------------------------------------------------------- snapshots
  //
  // Fitted state is persistable through the versioned, CRC-framed binary
  // envelope of io/chunk.hpp: SaveState writes a self-describing
  // [type tag | state] chunk pair, LoadState restores it into an estimator of
  // the same concrete type, fully replacing configuration and data. The
  // contract: a restored estimator answers Answer() bit-identically to the
  // estimator that saved — lazily fitted caches are persisted (or
  // reconstructed from exactly the data they were fitted on), so answers
  // match even when the save landed mid refit-interval — and is
  // merge-compatible with it under the ordinary MergeFrom rules. Decoding
  // hostile bytes (truncated, bit-flipped, wrong magic, future version)
  // yields a non-OK Status, never UB or an abort, and a failed LoadState
  // leaves the estimator untouched (parse fully, then commit). The string
  // tag → factory registry (estimator_registry.hpp) restores whole snapshots
  // without naming the concrete type at the call site; the same tag keys the
  // declarative construction path (EstimatorSpec::tag).

  /// Stable wire identity of the concrete type — the registry key, parallel
  /// to merge_type_tag() (the string survives process boundaries, the
  /// pointer does not). nullptr means snapshots are unsupported.
  virtual const char* snapshot_type_tag() const { return nullptr; }

  /// True when this estimator supports SaveState()/LoadState().
  bool snapshotable() const { return snapshot_type_tag() != nullptr; }

  /// Writes this estimator's envelope (TYPE, DIMS and STAT chunks, each
  /// CRC-framed). Composable: callers embedding estimators in larger artifacts
  /// (e.g. the sharded checkpoint) call this per estimator; whole-file
  /// snapshots add the magic/version header via SaveEstimatorSnapshot.
  Status SaveState(io::Sink& sink) const;

  /// Restores an envelope written by SaveState. The envelope's type tag and
  /// dimensionality must match this estimator's; configuration and data are
  /// then fully replaced. On any error the estimator is untouched. The state
  /// payload is parsed in place when the source is memory-backed
  /// (Source::View), so a restore never holds the payload twice.
  Status LoadState(io::Source& source);

  /// An independent copy of this estimator carrying all fitted state that
  /// answers bit-identically to it — the view-extraction path the serving
  /// layer publishes epochs from. Fitted buffers that are never mutated in
  /// place (arena columns, a KDE's sorted sample) are shared, so the clone
  /// costs O(columns) plus whatever raw state the estimator copies; the
  /// first mutation on either side un-shares.
  virtual std::unique_ptr<SelectivityEstimator> CloneForView() const = 0;

  /// Restores any registered estimator from a whole snapshot (header +
  /// envelope) and folds it into this one via MergeFrom — the cross-process
  /// distributed-merge path: N ingest processes SaveEstimatorSnapshot their
  /// partitions, one combiner MergeFromSnapshots them.
  Status MergeFromSnapshot(io::Source& source);

 protected:
  /// Snapshot extension points: serialize/restore the concrete estimator's
  /// full configuration + data as io primitives. SaveStateImpl runs twice
  /// per save — once into a byte counter that sizes the STAT chunk, once
  /// streaming into the real sink while the CRC is taken
  /// (io::WriteChunkStreamed) — and must write the same bytes both times;
  /// a length mismatch fails the save with Internal. LoadStateImpl receives
  /// a source spanning exactly its state payload and must parse everything
  /// into locals, validate — including that the payload is fully consumed —
  /// and only then commit, so failures leave the estimator untouched.
  /// Defaults report unsupported.
  ///
  /// Validation covers values, not just framing: a loader that keeps raw
  /// observations rejects non-finite ones, and one whose Insert clamps into
  /// a domain rejects values outside it — state a live estimator could never
  /// hold must not load (InvalidArgument).
  virtual Status SaveStateImpl(io::Sink& sink) const;
  virtual Status LoadStateImpl(io::Source& source);

 private:
  /// Reads an envelope's DIMS chunk (the TYPE chunk already consumed). The
  /// dimensionality is known BEFORE any state byte is parsed: LoadState
  /// checks it against this estimator, the registry's restore-by-tag path
  /// builds its shell with it.
  static Result<int> ReadEnvelopeDims(io::Source& source);

  /// Reads the STAT chunk and dispatches to LoadStateImpl (shared by
  /// LoadState and the restore-by-tag path).
  Status LoadEnvelopeState(io::Source& source);

  friend Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorEnvelope(
      io::Source& source);

 protected:
  /// Shared MergeFrom preamble: rejects self-merge (for buffer-append state
  /// it would self-insert — UB on reallocation — and for count state it
  /// would silently double) and peers of a different concrete type (tag
  /// mismatch). After an OK return, `other` is a distinct instance of this
  /// concrete type and may be static_cast to it.
  Status CheckMergePeer(const SelectivityEstimator& other) const {
    if (&other == this) {
      return Status::InvalidArgument("cannot merge an estimator into itself");
    }
    if (merge_type_tag() == nullptr ||
        other.merge_type_tag() != merge_type_tag()) {
      return Status::FailedPrecondition("MergeFrom: " + name() + " vs " +
                                        other.name());
    }
    return Status::OK();
  }

  /// The scalar range extension point — the minimal surface a new estimator
  /// implements; every 1-D query kind lowers onto it. Called with a <= b; the
  /// endpoints may be ±inf (the one-sided limits), never NaN. For a
  /// multi-dimensional estimator this is the axis-0 marginal — identically
  /// EstimateRectImpl(a, b, -inf, +inf) — so quantiles and the 1-D kinds stay
  /// meaningful over the first attribute.
  virtual double EstimateRangeImpl(double a, double b) const = 0;

  /// The rectangle extension point for dims() == 2 estimators: the mass of
  /// [lo0, hi0] × [lo1, hi1]. Called with lo <= hi per axis; endpoints may be
  /// ±inf (half-planes and full-axis marginals), never NaN. The interface
  /// default answers 0.0 — the documented answer of a 1-D estimator to a
  /// genuinely 2-D predicate (AnswerMultiDim never calls it for dims() == 1).
  virtual double EstimateRectImpl(double lo0, double hi0, double lo1,
                                  double hi1) const {
    (void)lo0;
    (void)hi0;
    (void)lo1;
    (void)hi1;
    return 0.0;
  }

  /// The batch query extension point: called with matched spans, at least
  /// one query, and every query normalized (ranges with lo <= hi, no NaN
  /// parameters, quantile levels in [0, 1]). The default loops the canonical
  /// scalar lowering AnswerOne(); overrides amortize staleness checks and
  /// per-level reconstruction setup across queries — and may substitute
  /// genuinely cheaper per-kind paths (signed-CDF evaluation, prefix sums,
  /// windowed kernel antiderivatives) — but must stay bit-identical to the
  /// default lowering (enforced by batch_equivalence_test and
  /// query_taxonomy_test).
  ///
  /// Lazily fitted state (refit caches, prefix tables, boundary rebuilds)
  /// must be refreshed by the FIRST query dispatched, whatever its kind —
  /// never built kind-by-kind partway through a batch. Every shipped
  /// estimator routes all kinds through one staleness check, and
  /// ShardedSelectivityEstimator relies on this: it answers one warm-up
  /// query against its merged view and then fans the rest of the batch out
  /// across threads as pure reads, so kind-specific lazy caches would be a
  /// data race under the sharded wrapper.
  virtual void AnswerImpl(std::span<const Query> queries,
                          std::span<double> out) const {
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
  }

  /// The canonical lowering of one normalized query onto EstimateRangeImpl:
  /// mass kinds become range endpoints via LowerToRange(); quantiles invert
  /// the lowered CDF via QuantileByBisection(); the multi-dimensional kinds
  /// dispatch through AnswerMultiDim(). AnswerImpl overrides fall back to
  /// this for kinds they have no cheaper path for.
  double AnswerOne(const Query& query) const;

  /// Lowers a normalized 1-D mass-kind query (kRange/kPoint/kLess/kCdf/
  /// kGreater) to its range endpoints: Range passes through, Point becomes
  /// [x - EqualityWidth()/2, x + EqualityWidth()/2], Less/Cdf become
  /// (-inf, c], Greater becomes [c, +inf). kQuantile and the
  /// multi-dimensional kinds have no range lowering (route them through
  /// AnswerOne instead — AnswerImpl overrides with a default branch that
  /// calls LowerToRange directly must divert those kinds first).
  Interval LowerToRange(const Query& query) const;

  /// The documented lowering of the multi-dimensional kinds, shared by
  /// AnswerOne and every AnswerImpl override:
  ///   kMarginal  — axis >= dims() answers 0.0; axis 0 is
  ///                EstimateRangeImpl(a, b) for EVERY estimator (the axis-0
  ///                marginal IS the range primitive, 1-D included); axis 1 on
  ///                a 2-D estimator is EstimateRectImpl(-inf, +inf, a, b).
  ///   kRect      — 0.0 unless dims() >= 2, else EstimateRectImpl(a,b,c,d).
  ///   kConditional — 0.0 unless dims() >= 2; else the rect mass divided by
  ///                the axis-1 marginal mass of [c, d], clamped to [0, 1],
  ///                with a non-positive denominator answering 0.0.
  double AnswerMultiDim(const Query& query) const;

  /// Extension point behind ForceRefit(): refresh every lazy cache this
  /// estimator would refresh on the first query of a batch. const because
  /// lazy caches are mutable (queries refresh them through const paths
  /// already); the default is a no-op for estimators with no lazy state.
  virtual void ForceRefitImpl() const {}

  /// The documented quantile algorithm: bisection of the lowered CDF
  /// x ↦ EstimateRangeImpl(-inf, x) over the Domain() bracket
  /// (numerics::BisectMonotone, tolerance 1e-12, 200 iterations), so
  /// quantile answers always land inside the declared domain. An estimator
  /// with no data answers 0.0. Deterministic; overrides answering kQuantile
  /// must route through this helper so batch and scalar paths agree
  /// bitwise.
  double QuantileByBisection(double p) const;
};

/// Defines the per-class merge tag used by mergeable estimators: a static
/// member function whose local static's address identifies the concrete type.
#define WDE_SELECTIVITY_MERGE_TAG()                \
  static const void* MergeTag() {                  \
    static const int tag = 0;                      \
    return &tag;                                   \
  }                                                \
  const void* merge_type_tag() const override { return MergeTag(); }

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_SELECTIVITY_ESTIMATOR_HPP_
