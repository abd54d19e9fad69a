#include "kernel/kde.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "numerics/simd.hpp"
#include "util/check.hpp"

namespace wde {
namespace kernel {
namespace {

// Per-thread scratch for the gathered stride-1 operand/result buffers of the
// batch paths, reused across calls so steady-state evaluation never
// allocates. Thread-local keeps the concurrent read-side (sharded fan-out,
// serving views) race-free without locks.
std::vector<double>& ScratchArgs() {
  thread_local std::vector<double> buf;
  return buf;
}
std::vector<double>& ScratchVals() {
  thread_local std::vector<double> buf;
  return buf;
}

// Double-double arithmetic (an unevaluated sum hi + lo with |lo| <= ulp(hi)/2,
// about 106 significant bits) for the block-moment index: its prefix sums
// and the cubic evaluated from them cancel catastrophically in plain double.
struct Dd {
  double hi = 0.0;
  double lo = 0.0;
};

Dd TwoSum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

Dd QuickTwoSum(double a, double b) {  // requires |a| >= |b| or a == 0
  const double s = a + b;
  return {s, b - (s - a)};
}

// Exact a·b as hi + lo by Dekker's split (no fma: the baseline x86-64
// target has none in hardware, and the libm fallback is slow).
Dd TwoProd(double a, double b) {
  const double p = a * b;
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double ta = kSplit * a;
  const double ahi = ta - (ta - a);
  const double alo = a - ahi;
  const double tb = kSplit * b;
  const double bhi = tb - (tb - b);
  const double blo = b - bhi;
  return {p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo};
}

Dd operator+(Dd a, Dd b) {
  Dd s = TwoSum(a.hi, b.hi);
  const Dd t = TwoSum(a.lo, b.lo);
  s.lo += t.hi;
  s = QuickTwoSum(s.hi, s.lo);
  s.lo += t.lo;
  return QuickTwoSum(s.hi, s.lo);
}

Dd operator-(Dd a, Dd b) { return a + Dd{-b.hi, -b.lo}; }

Dd operator*(Dd a, double b) {
  Dd p = TwoProd(a.hi, b);
  p.lo += a.lo * b;
  return QuickTwoSum(p.hi, p.lo);
}

Dd operator*(Dd a, Dd b) {
  Dd p = TwoProd(a.hi, b.hi);
  p.lo += a.hi * b.lo + a.lo * b.hi;
  return QuickTwoSum(p.hi, p.lo);
}

}  // namespace

// Σ_{i < b·B} (x_i − centre)^k for k = 1..3 at every block boundary
// b = 0..n/B (a trailing partial block is never covered), as the hi and lo
// words of three Dd in doubles 6·b .. 6·b + 5 of one arena column, so the
// index is recycled with the sample column it is built from. No column when
// the data's scale rules the cubic out (see Moments()).
struct KernelDensityEstimator::BlockMoments {
  static constexpr size_t kRow = 6;
  double centre = 0.0;
  memory::Arena prefix;

  bool empty() const { return prefix.empty(); }
  const double* Row(size_t b) const { return prefix.F64(0).data() + kRow * b; }
};

KernelDensityEstimator::KernelDensityEstimator(Kernel kernel, double bandwidth,
                                               memory::Arena samples)
    : kernel_(std::move(kernel)),
      bandwidth_(bandwidth),
      samples_(std::move(samples)),
      sorted_(samples_.F64(0)) {}

Result<KernelDensityEstimator> KernelDensityEstimator::Create(
    Kernel kernel, double bandwidth, std::span<const double> data) {
  if (data.empty()) return Status::InvalidArgument("KDE requires data");
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("bandwidth must be positive and finite");
  }
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, data.size()}};
  memory::Arena samples = memory::Arena::Create(specs);
  std::span<double> dst = samples.MutableF64(0);
  std::copy(data.begin(), data.end(), dst.begin());
  std::sort(dst.begin(), dst.end());
  return KernelDensityEstimator(std::move(kernel), bandwidth, std::move(samples));
}

Result<KernelDensityEstimator> KernelDensityEstimator::AdoptSorted(
    Kernel kernel, double bandwidth, memory::Arena samples) {
  if (samples.num_columns() != 1 || samples.column(0).count == 0) {
    return Status::InvalidArgument("KDE requires one non-empty sample column");
  }
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("bandwidth must be positive and finite");
  }
  // The Epanechnikov index is built in the sweep that checks the order, so
  // the column is read once and warm-up has nothing left to build.
  std::shared_ptr<BlockMoments> index;
  if (kernel.type() == KernelType::kEpanechnikov) {
    index = std::make_shared<BlockMoments>();
  }
  if (!Sweep(samples.F64(0), bandwidth, index.get())) {
    return Status::InvalidArgument("AdoptSorted: samples are not ascending");
  }
  KernelDensityEstimator kde(std::move(kernel), bandwidth, std::move(samples));
  kde.moments_ = std::move(index);
  return kde;
}

double KernelDensityEstimator::Evaluate(double x) const {
  const double radius = kernel_.support_radius() * bandwidth_;
  const auto lo =
      std::lower_bound(sorted_.begin(), sorted_.end(), x - radius);
  const auto hi = std::upper_bound(lo, sorted_.end(), x + radius);
  double acc = 0.0;
  for (auto it = lo; it != hi; ++it) {
    acc += kernel_.Evaluate((x - *it) / bandwidth_);
  }
  return acc / (static_cast<double>(sorted_.size()) * bandwidth_);
}

void KernelDensityEstimator::EvaluateMany(std::span<const double> xs,
                                          std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "EvaluateMany spans must match");
  const double radius = kernel_.support_radius() * bandwidth_;
  const double norm = static_cast<double>(sorted_.size()) * bandwidth_;
  const double bandwidth = bandwidth_;
  // The window goes through the kernel in stack chunks that stay in L1, so
  // each sample is read from memory once.
  constexpr size_t kChunk = 256;
  double us[kChunk];
  double ks[kChunk];
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    // Same window, same per-term arithmetic, same left-to-right sum as
    // Evaluate(x) — only the kernel applications run through the gathered
    // SIMD batch, which is elementwise bit-identical.
    const auto lo = std::lower_bound(sorted_.begin(), sorted_.end(), x - radius);
    const auto hi = std::upper_bound(lo, sorted_.end(), x + radius);
    const double* window = sorted_.data() + (lo - sorted_.begin());
    const auto size = static_cast<size_t>(hi - lo);
    double acc = 0.0;
    for (size_t start = 0; start < size; start += kChunk) {
      const size_t count = std::min(kChunk, size - start);
      const double* base = window + start;
      WDE_SIMD_LOOP
      for (size_t m = 0; m < count; ++m) us[m] = (x - base[m]) / bandwidth;
      kernel_.EvaluateMany({us, count}, {ks, count});
      for (size_t m = 0; m < count; ++m) acc += ks[m];
    }
    out[i] = acc / norm;
  }
}

std::vector<double> KernelDensityEstimator::EvaluateOnGrid(double lo, double hi,
                                                           size_t points) const {
  WDE_CHECK_GE(points, 2u);
  WDE_CHECK_LT(lo, hi);
  std::vector<double> out(points);
  const double dx = (hi - lo) / static_cast<double>(points - 1);
  for (size_t i = 0; i < points; ++i) {
    out[i] = Evaluate(lo + dx * static_cast<double>(i));
  }
  return out;
}

double KernelDensityEstimator::IntegrateRange(double a, double b) const {
  if (b < a) std::swap(a, b);
  double acc = 0.0;
  for (double x : sorted_) {
    acc += kernel_.Cdf((b - x) / bandwidth_) - kernel_.Cdf((a - x) / bandwidth_);
  }
  return acc / static_cast<double>(sorted_.size());
}

bool KernelDensityEstimator::Sweep(std::span<const double> sorted, double bandwidth,
                                   BlockMoments* index) {
  constexpr size_t kB = kMomentBlock;
  const double* data = sorted.data();
  const size_t n = sorted.size();
  size_t blocks = 0;  // whole blocks indexed: none without an index
  double* rows = nullptr;
  if (index != nullptr) {
    // Centre the moments on the data so the cubic in CdfAt cancels as little
    // as possible; std::midpoint cannot overflow.
    index->centre = std::midpoint(sorted.front(), sorted.back());
    // That cubic cancels terms of size (range/h)³ per sample down to at
    // most 1, so double-double leaves about (range/h)³·1e-32 of error: at
    // most 1e-14 while range <= 1e6·h. The other two bounds keep every
    // moment and h³ far inside the normal double range. Outside them the
    // prefix stays empty and CdfAt sums the window sample by sample.
    const double range = sorted.back() - sorted.front();
    if (range <= 1e6 * bandwidth && range <= 1e60 && bandwidth >= 1e-60) {
      blocks = n / kB;
      const memory::ColumnSpec specs[] = {
          {memory::ColumnKind::kF64, BlockMoments::kRow * (blocks + 1)}};
      // Every entry is written below, boundary 0's zeros included.
      index->prefix = memory::Arena::CreateForOverwrite(specs);
      rows = index->prefix.MutableF64(0).data();
      std::fill(rows, rows + BlockMoments::kRow, 0.0);
    }
  }
  // Every comparison is false against NaN, so one anywhere fails the order.
  bool ascending = data[0] == data[0];
  Dd m1, m2, m3;
  for (size_t b = 0; b < blocks; ++b) {
    // Block-local moments about the block's first sample in plain double:
    // the offsets are small, so these sums are accurate to a few ulps of
    // the block's own spread.
    const double* block = data + b * kB;
    const double first = block[0];
    if (b > 0) ascending &= block[-1] <= first;
    double s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = 0; i < kB; ++i) {
      const double e = block[i] - first;
      const double e2 = e * e;
      s1 += e;
      s2 += e2;
      s3 += e2 * e;
    }
    for (size_t i = 1; i < kB; ++i) ascending &= block[i - 1] <= block[i];
    // Shift to the common centre in double-double: with a = first − centre
    // (exact), Σ(e + a)^k expands binomially.
    const Dd a = TwoSum(first, -index->centre);
    const Dd a2 = a * a;
    const double count = static_cast<double>(kB);
    m1 = m1 + a * count + Dd{s1, 0.0};
    m2 = m2 + a2 * count + a * (2.0 * s1) + Dd{s2, 0.0};
    m3 = m3 + a2 * a * count + a2 * (3.0 * s1) + a * (3.0 * s2) + Dd{s3, 0.0};
    double* row = rows + BlockMoments::kRow * (b + 1);
    row[0] = m1.hi;
    row[1] = m1.lo;
    row[2] = m2.hi;
    row[3] = m2.lo;
    row[4] = m3.hi;
    row[5] = m3.lo;
  }
  // The samples past the last indexed block, and the pair across it.
  for (size_t i = std::max<size_t>(blocks * kB, 1); i < n; ++i) {
    ascending &= data[i - 1] <= data[i];
  }
  return ascending;
}

const KernelDensityEstimator::BlockMoments& KernelDensityEstimator::Moments() const {
  if (moments_) return *moments_;
  auto index = std::make_shared<BlockMoments>();
  (void)Sweep(sorted_, bandwidth_, index.get());  // Create() sorted it
  moments_ = std::move(index);
  return *moments_;
}

void KernelDensityEstimator::PrepareCdf() const {
  if (kernel_.type() == KernelType::kEpanechnikov) (void)Moments();
}

double KernelDensityEstimator::CdfAt(double x) const {
  // sorted_ ascends, so u = (x - X_i)/h descends along the array: a prefix
  // of samples saturates Kernel::Cdf at exactly 1.0 (u >= R), a suffix at
  // exactly 0.0 (u <= -R), and only the window between them contributes a
  // fractional term. Both split points use the very comparison the Cdf
  // branches evaluate, and the saturated prefix counts as its exact integer
  // size.
  const double radius = kernel_.support_radius();
  const auto ones_end = std::partition_point(
      sorted_.begin(), sorted_.end(),
      [&](double xi) { return (x - xi) / bandwidth_ >= radius; });
  const auto zeros_begin = std::partition_point(
      ones_end, sorted_.end(),
      [&](double xi) { return (x - xi) / bandwidth_ > -radius; });
  const size_t lo = static_cast<size_t>(ones_end - sorted_.begin());
  const size_t hi = static_cast<size_t>(zeros_begin - sorted_.begin());
  double acc = static_cast<double>(lo);
  const double bandwidth = bandwidth_;
  if (kernel_.type() == KernelType::kEpanechnikov) {
    // Built whatever the window, so the first query of any kind primes it.
    const BlockMoments& index = Moments();
    constexpr size_t kB = kMomentBlock;
    const size_t first_block = (lo + kB - 1) / kB;
    const size_t end_block = hi / kB;
    // Samples outside whole blocks one by one: the ≤ B−1 of each partial
    // block, or the whole window when no full block fits (or no index)...
    const bool covered = !index.empty() && first_block < end_block;
    const size_t left_end = covered ? first_block * kB : hi;
    const size_t right_begin = covered ? end_block * kB : hi;
    for (size_t i = lo; i < left_end; ++i) {
      acc += EpanechnikovCdfInterior((x - sorted_[i]) / bandwidth);
    }
    for (size_t i = right_begin; i < hi; ++i) {
      acc += EpanechnikovCdfInterior((x - sorted_[i]) / bandwidth);
    }
    if (!covered) return acc / static_cast<double>(sorted_.size());
    // ...and the m whole blocks between them from their moments
    // M_k = Σ d_i^k, d_i = x_i − c: with y = x − c and u_i = (y − d_i)/h,
    //   Σ u_i   = (m·y − M₁)/h,
    //   Σ u_i³  = (m·y³ − 3y²·M₁ + 3y·M₂ − M₃)/h³,
    // so Σ(½ + ¾u_i − ¼u_i³) is one cubic, evaluated in double-double.
    const double* p_lo = index.Row(first_block);
    const double* p_hi = index.Row(end_block);
    const Dd M1 = Dd{p_hi[0], p_hi[1]} - Dd{p_lo[0], p_lo[1]};
    const Dd M2 = Dd{p_hi[2], p_hi[3]} - Dd{p_lo[2], p_lo[3]};
    const Dd M3 = Dd{p_hi[4], p_hi[5]} - Dd{p_lo[4], p_lo[5]};
    const double m = static_cast<double>((end_block - first_block) * kB);
    const Dd y = TwoSum(x, -index.centre);
    const Dd linear = y * m - M1;
    const Dd cubic = ((y * m - M1 * 3.0) * y + M2 * 3.0) * y - M3;
    const double sum_u = linear.hi / bandwidth;
    const double sum_u3 = cubic.hi / (bandwidth * bandwidth * bandwidth);
    acc += 0.5 * m + 0.75 * sum_u - 0.25 * sum_u3;
    return acc / static_cast<double>(sorted_.size());
  }
  // Other kernels: the window terms are gathered into contiguous scratch,
  // evaluated by the SIMD batch CDF (elementwise bit-identical to
  // Kernel::Cdf), and summed left to right.
  const size_t window = hi - lo;
  if (window != 0) {
    std::vector<double>& us = ScratchArgs();
    std::vector<double>& ks = ScratchVals();
    us.resize(window);
    ks.resize(window);
    const double* base = sorted_.data() + lo;
    WDE_SIMD_LOOP
    for (size_t m = 0; m < window; ++m) us[m] = (x - base[m]) / bandwidth;
    kernel_.CdfMany(us, ks);
    for (size_t m = 0; m < window; ++m) acc += ks[m];
  }
  return acc / static_cast<double>(sorted_.size());
}

void KernelDensityEstimator::CdfAtMany(std::span<const double> xs,
                                       std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "CdfAtMany spans must match");
  for (size_t i = 0; i < xs.size(); ++i) out[i] = CdfAt(xs[i]);
}

}  // namespace kernel
}  // namespace wde
