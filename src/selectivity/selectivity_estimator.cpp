#include "selectivity/selectivity_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string_view>

#include "io/chunk.hpp"
#include "numerics/optimize.hpp"

namespace wde {
namespace selectivity {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when the query may be handed to AnswerImpl as-is: no NaN in any used
/// parameter, ranges ordered, quantile levels inside [0, 1]. (NaN fails every
/// ordered comparison, so the kRange and kQuantile predicates subsume the
/// NaN checks for their parameters.)
bool IsNormalized(const Query& q) {
  switch (q.kind) {
    case QueryKind::kRange:
      return q.a <= q.b;
    case QueryKind::kQuantile:
      return q.a >= 0.0 && q.a <= 1.0;
    case QueryKind::kRect:
    case QueryKind::kConditional:
      // Both axis intervals ordered; NaN fails either comparison.
      return q.a <= q.b && q.c <= q.d;
    case QueryKind::kMarginal:
      return q.a <= q.b;
    default:
      return !std::isnan(q.a);
  }
}

/// True when the abnormal query is answered 0.0 at the interface (NaN in a
/// used parameter) rather than rewritten and dispatched.
bool AnswersZero(const Query& q) {
  switch (q.kind) {
    case QueryKind::kRange:
    case QueryKind::kMarginal:
      return std::isnan(q.a) || std::isnan(q.b);
    case QueryKind::kRect:
    case QueryKind::kConditional:
      return std::isnan(q.a) || std::isnan(q.b) || std::isnan(q.c) ||
             std::isnan(q.d);
    default:
      return std::isnan(q.a);
  }
}

/// Rewrites the one abnormal non-NaN form per kind: inverted ranges swap
/// (independently per axis for the two-interval kinds), out-of-range quantile
/// levels clamp.
Query Normalize(const Query& q) {
  Query fixed = q;
  switch (q.kind) {
    case QueryKind::kRange:
    case QueryKind::kMarginal:
      std::swap(fixed.a, fixed.b);
      break;
    case QueryKind::kQuantile:
      fixed.a = std::clamp(q.a, 0.0, 1.0);
      break;
    case QueryKind::kRect:
    case QueryKind::kConditional:
      // Each axis swaps only when inverted: Normalize() runs whenever EITHER
      // axis is abnormal, so the in-order axis must pass through untouched.
      if (q.a > q.b) std::swap(fixed.a, fixed.b);
      if (q.c > q.d) std::swap(fixed.c, fixed.d);
      break;
    default:
      break;
  }
  return fixed;
}

}  // namespace

bool internal::IsCountTable(std::span<const double> counts, uint64_t total) {
  // Integer-valued doubles add exactly up to 2^53, far beyond any count.
  double sum = 0.0;
  for (double c : counts) {
    if (!(c >= 0.0 && c <= 0x1p53) || c != std::floor(c)) return false;
    sum += c;
  }
  return sum == static_cast<double>(total);
}

void SelectivityEstimator::Answer(std::span<const Query> queries,
                                  std::span<double> out) const {
  WDE_CHECK_EQ(queries.size(), out.size(), "Answer spans must match");
  if (queries.empty()) return;
  // One scan; maximal already-normalized runs go to AnswerImpl as sub-spans
  // of the caller's storage (no copy, however many queries need fixing), and
  // each abnormal query is either answered 0.0 here (NaN) or rewritten on
  // the stack and dispatched alone.
  size_t run_start = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (IsNormalized(q)) continue;
    if (i > run_start) {
      AnswerImpl(queries.subspan(run_start, i - run_start),
                 out.subspan(run_start, i - run_start));
    }
    run_start = i + 1;
    if (AnswersZero(q)) {
      out[i] = 0.0;
      continue;
    }
    const Query fixed = Normalize(q);
    AnswerImpl(std::span<const Query>(&fixed, 1), out.subspan(i, 1));
  }
  if (run_start < queries.size()) {
    AnswerImpl(queries.subspan(run_start), out.subspan(run_start));
  }
}

void SelectivityEstimator::EstimateBatch(std::span<const RangeQuery> queries,
                                         std::span<double> out) const {
  WDE_CHECK_EQ(queries.size(), out.size(), "EstimateBatch spans must match");
  if (queries.empty()) return;
  // Chunked conversion through a stack buffer: bounded storage regardless of
  // batch size, and Answer() runs its normalization per chunk (query answers
  // are independent, so chunking cannot change them).
  std::array<Query, 256> buffer;
  size_t offset = 0;
  while (offset < queries.size()) {
    const size_t n = std::min(buffer.size(), queries.size() - offset);
    for (size_t i = 0; i < n; ++i) {
      buffer[i] = Query::Range(queries[offset + i].lo, queries[offset + i].hi);
    }
    Answer(std::span<const Query>(buffer.data(), n), out.subspan(offset, n));
    offset += n;
  }
}

RangeQuery SelectivityEstimator::LowerToRange(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kRange:
      return RangeQuery{query.a, query.b};
    case QueryKind::kPoint: {
      const double half = 0.5 * EqualityWidth();
      return RangeQuery{query.a - half, query.a + half};
    }
    case QueryKind::kLess:
    case QueryKind::kCdf:
      return RangeQuery{-kInf, query.a};
    case QueryKind::kGreater:
      return RangeQuery{query.a, kInf};
    case QueryKind::kQuantile:
    case QueryKind::kRect:
    case QueryKind::kMarginal:
    case QueryKind::kConditional:
      break;
  }
  WDE_CHECK(false, "query kind has no 1-D range lowering");
  return RangeQuery{};
}

double SelectivityEstimator::AnswerMultiDim(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kMarginal:
      if (query.axis >= dims()) return 0.0;
      // Axis 0 IS the range primitive — for every estimator, 1-D included —
      // so Marginal(0, a, b) and Range(a, b) are one code path, bitwise.
      if (query.axis == 0) return EstimateRangeImpl(query.a, query.b);
      return EstimateRectImpl(-kInf, kInf, query.a, query.b);
    case QueryKind::kRect:
      if (dims() < 2) return 0.0;
      return EstimateRectImpl(query.a, query.b, query.c, query.d);
    case QueryKind::kConditional: {
      if (dims() < 2) return 0.0;
      const double condition = EstimateRectImpl(-kInf, kInf, query.c, query.d);
      if (!(condition > 0.0)) return 0.0;
      const double joint =
          EstimateRectImpl(query.a, query.b, query.c, query.d);
      return std::clamp(joint / condition, 0.0, 1.0);
    }
    default:
      break;
  }
  WDE_CHECK(false, "AnswerMultiDim dispatched a 1-D query kind");
  return 0.0;
}

double SelectivityEstimator::AnswerOne(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kQuantile:
      return QuantileByBisection(query.a);
    case QueryKind::kRect:
    case QueryKind::kMarginal:
    case QueryKind::kConditional:
      return AnswerMultiDim(query);
    default:
      break;
  }
  const RangeQuery range = LowerToRange(query);
  return EstimateRangeImpl(range.lo, range.hi);
}

double SelectivityEstimator::QuantileByBisection(double p) const {
  if (count() == 0) return 0.0;
  const RangeQuery domain = Domain();
  return numerics::BisectMonotone(
      [this](double x) { return EstimateRangeImpl(-kInf, x); }, p, domain.lo,
      domain.hi);
}

Status SelectivityEstimator::SaveState(io::Sink& sink) const {
  if (!snapshotable()) {
    return Status::FailedPrecondition(name() + " does not support snapshots");
  }
  const std::string_view tag = snapshot_type_tag();
  WDE_RETURN_IF_ERROR(io::WriteChunk(
      sink, internal::kChunkEstimatorType,
      std::span(reinterpret_cast<const uint8_t*>(tag.data()), tag.size())));
  io::VectorSink dims;
  WDE_RETURN_IF_ERROR(io::WriteU32(dims, static_cast<uint32_t>(this->dims())));
  WDE_RETURN_IF_ERROR(io::WriteChunk(sink, internal::kChunkEstimatorDims, dims.bytes()));
  // Buffer the state so the chunk framing can length-prefix and checksum it.
  io::VectorSink state;
  WDE_RETURN_IF_ERROR(SaveStateImpl(state));
  return io::WriteChunk(sink, internal::kChunkEstimatorState, state.bytes());
}

Status SelectivityEstimator::LoadState(io::Source& source) {
  if (!snapshotable()) {
    return Status::FailedPrecondition(name() + " does not support snapshots");
  }
  WDE_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> tag_bytes,
      io::ReadChunkExpecting(source, internal::kChunkEstimatorType));
  const std::string tag(tag_bytes.begin(), tag_bytes.end());
  if (tag != snapshot_type_tag()) {
    return Status::FailedPrecondition("snapshot of type '" + tag +
                                      "' cannot restore into " + name());
  }
  return LoadEnvelopeState(source);
}

Status SelectivityEstimator::LoadEnvelopeState(io::Source& source) {
  // The dimensionality is checked against the target BEFORE any state byte
  // is parsed.
  WDE_ASSIGN_OR_RETURN(const io::ChunkRef dims, io::ReadChunkRef(source));
  if (dims.tag != internal::kChunkEstimatorDims || dims.payload.size() != 4) {
    return Status::InvalidArgument("estimator envelope lacks its DIMS chunk");
  }
  io::SpanSource dims_source(dims.payload);
  WDE_ASSIGN_OR_RETURN(const uint32_t snapshot_dims, io::ReadU32(dims_source));
  if (snapshot_dims != static_cast<uint32_t>(this->dims())) {
    return Status::FailedPrecondition("snapshot dimensionality does not match " + name());
  }
  // Zero-copy read: for memory-backed sources (SpanSource over a blob, a
  // FileSource) the payload is a view into the source's buffer; only
  // byte-stream sources pay a copy.
  WDE_ASSIGN_OR_RETURN(const io::ChunkRef state, io::ReadChunkRef(source));
  if (state.tag != internal::kChunkEstimatorState) {
    return Status::InvalidArgument("estimator envelope lacks its STAT chunk");
  }
  io::SpanSource state_source(state.payload);
  // Payload exhaustion is part of the LoadStateImpl contract and must be
  // validated there BEFORE committing (a wrapper-side check here would fire
  // only after the implementation already replaced the estimator's state,
  // silently breaking the untouched-on-error guarantee).
  return LoadStateImpl(state_source);
}

Status SelectivityEstimator::SaveStateImpl(io::Sink& sink) const {
  (void)sink;
  return Status::FailedPrecondition(name() + " does not implement SaveStateImpl");
}

Status SelectivityEstimator::LoadStateImpl(io::Source& source) {
  (void)source;
  return Status::FailedPrecondition(name() + " does not implement LoadStateImpl");
}

}  // namespace selectivity
}  // namespace wde
