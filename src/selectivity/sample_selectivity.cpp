#include "selectivity/sample_selectivity.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

ReservoirSampleSelectivity::ReservoirSampleSelectivity(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  WDE_CHECK_GT(capacity_, 0u);
  reservoir_.reserve(capacity_);
}

void ReservoirSampleSelectivity::Insert(double x) {
  if (!std::isfinite(x)) return;
  ++seen_;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(x);
    return;
  }
  const uint64_t slot = rng_.UniformInt(seen_);
  if (slot < capacity_) reservoir_[static_cast<size_t>(slot)] = x;
}

Interval ReservoirSampleSelectivity::Domain() const {
  if (reservoir_.empty()) return SelectivityEstimator::Domain();
  const auto [min_it, max_it] =
      std::minmax_element(reservoir_.begin(), reservoir_.end());
  return Interval{*min_it, *max_it};
}

double ReservoirSampleSelectivity::EstimateRangeImpl(double a, double b) const {
  if (reservoir_.empty()) return 0.0;
  size_t hits = 0;
  for (double x : reservoir_) {
    if (x >= a && x <= b) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(reservoir_.size());
}

std::string ReservoirSampleSelectivity::name() const {
  return Format("reservoir(%zu)", capacity_);
}

std::unique_ptr<SelectivityEstimator> ReservoirSampleSelectivity::CloneEmpty()
    const {
  return std::make_unique<ReservoirSampleSelectivity>(capacity_, rng_.seed());
}

Status ReservoirSampleSelectivity::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const ReservoirSampleSelectivity&>(other);
  if (capacity_ != rhs.capacity_) {
    return Status::FailedPrecondition("MergeFrom: reservoir capacity mismatch");
  }
  if (rhs.seen_ <= rhs.capacity_) {
    // rhs retained its whole sub-stream: replaying it through Insert is an
    // exact continuation, no union draw needed.
    for (double x : rhs.reservoir_) Insert(x);
    return Status::OK();
  }
  // Weighted union: fill each output slot from one side with probability
  // proportional to that side's remaining stream count, drawing without
  // replacement. A uniform element of a reservoir is a uniform element of
  // its stream, and the rest stays a uniform sample of the remainder, so by
  // induction the result is a uniform capacity-sample of the concatenated
  // stream. At most capacity draws come from either side, so a pool can only
  // run dry together with its stream count.
  std::vector<double> pool_a = reservoir_;
  std::vector<double> pool_b = rhs.reservoir_;
  double n_a = static_cast<double>(seen_);
  double n_b = static_cast<double>(rhs.seen_);
  std::vector<double> merged;
  const size_t target = std::min(capacity_, seen_ + rhs.seen_);
  merged.reserve(target);
  while (merged.size() < target) {
    const bool from_a =
        !pool_a.empty() &&
        (pool_b.empty() || rng_.UniformDouble() < n_a / (n_a + n_b));
    std::vector<double>& pool = from_a ? pool_a : pool_b;
    const auto idx = static_cast<size_t>(rng_.UniformInt(pool.size()));
    merged.push_back(pool[idx]);
    pool[idx] = pool.back();
    pool.pop_back();
    (from_a ? n_a : n_b) -= 1.0;
  }
  reservoir_ = std::move(merged);
  seen_ += rhs.seen_;
  return Status::OK();
}

Status ReservoirSampleSelectivity::SaveStateImpl(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, capacity_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, seen_));
  WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, reservoir_));
  const stats::Rng::State rng = rng_.SaveState();
  for (uint64_t word : rng.state) WDE_RETURN_IF_ERROR(io::WriteU64(sink, word));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, rng.seed));
  WDE_RETURN_IF_ERROR(io::WriteU8(sink, rng.have_spare_gaussian ? 1 : 0));
  return io::WriteDouble(sink, rng.spare_gaussian);
}

Status ReservoirSampleSelectivity::LoadStateImpl(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(const uint64_t capacity, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t seen, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(std::vector<double> reservoir,
                       io::ReadDoubleVector(source));
  stats::Rng::State rng;
  for (uint64_t& word : rng.state) {
    WDE_ASSIGN_OR_RETURN(word, io::ReadU64(source));
  }
  WDE_ASSIGN_OR_RETURN(rng.seed, io::ReadU64(source));
  WDE_ASSIGN_OR_RETURN(const uint8_t have_spare, io::ReadU8(source));
  WDE_ASSIGN_OR_RETURN(rng.spare_gaussian, io::ReadDouble(source));
  rng.have_spare_gaussian = have_spare != 0;
  // Insert drops non-finite values, so the sample never holds one.
  if (capacity == 0 ||
      reservoir.size() != std::min<uint64_t>(seen, capacity) ||
      !std::all_of(reservoir.begin(), reservoir.end(),
                   [](double x) { return std::isfinite(x); }) ||
      source.remaining() != 0) {
    return Status::InvalidArgument("corrupt reservoir snapshot");
  }
  capacity_ = static_cast<size_t>(capacity);
  seen_ = static_cast<size_t>(seen);
  reservoir_ = std::move(reservoir);
  rng_.RestoreState(rng);
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
