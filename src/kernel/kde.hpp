/// \file kernel/kde.hpp
/// Entry header of the `kernel` module: the paper's comparison estimator
/// (§5.4, Figures 5–8) — classical KDE with the bandwidth selectors of
/// bandwidth.hpp ("kernel 1" rule-of-thumb, "kernel 2" LSCV). Invariants:
/// estimates are nonnegative and integrate to 1 over ℝ (unlike the signed
/// wavelet estimate); no boundary correction is applied, faithfully to the
/// paper; Create() rejects empty data and non-positive bandwidths.
#ifndef WDE_KERNEL_KDE_HPP_
#define WDE_KERNEL_KDE_HPP_

#include <memory>
#include <span>
#include <vector>

#include "kernel/kernels.hpp"
#include "memory/arena.hpp"
#include "util/result.hpp"

namespace wde {
namespace kernel {

/// Classical kernel density estimator f̂(x) = (nh)^{-1} Σ K((x - X_i)/h),
/// evaluated over a sorted copy of the data so that compactly supported
/// kernels cost O(log n + n·h) per query. This is the paper's baseline
/// estimator (§5.4); no boundary correction is applied, as in the paper.
class KernelDensityEstimator {
 public:
  static Result<KernelDensityEstimator> Create(Kernel kernel, double bandwidth,
                                               std::span<const double> data);

  /// Adopts `samples` — an arena of exactly one non-empty F64 column (a
  /// different kind is a caller bug and aborts) whose values are already
  /// ascending — as the sample storage, without copying or re-sorting it
  /// (the selectivity layer's refits and snapshot restores build the sorted
  /// column themselves). One O(n) sweep verifies the order under comparisons
  /// that fail on NaN — out-of-order input yields a Status, never a silently
  /// wrong estimator — and, for the Epanechnikov kernel, builds the
  /// block-moment index CdfAt uses (bitwise the one Create() builds lazily).
  static Result<KernelDensityEstimator> AdoptSorted(Kernel kernel, double bandwidth,
                                                    memory::Arena samples);

  double Evaluate(double x) const;

  /// out[i] = f̂(xs[i]): each query runs the linear windowed pass with the
  /// kernel terms evaluated by the SIMD batch kernel in L1-sized stack
  /// chunks — bit-identical to Evaluate(xs[i]).
  void EvaluateMany(std::span<const double> xs, std::span<double> out) const;

  /// Values on an inclusive uniform grid [lo, hi].
  std::vector<double> EvaluateOnGrid(double lo, double hi, size_t points) const;

  /// Estimated P(a <= X <= b) from the kernel CDF (used as a selectivity
  /// baseline).
  double IntegrateRange(double a, double b) const;

  /// The kernel CDF F̂(x) = n^{-1} Σ K_cdf((x - X_i)/h). Samples whose
  /// kernel argument saturates the CDF (u >= R → exactly 1, u <= -R →
  /// exactly 0) are counted or skipped via two partition points that use the
  /// Cdf branches' own comparisons; only the window between them is summed.
  ///
  /// Epanechnikov: O(log n + B). Whole blocks of B = 64 sorted samples
  /// inside the window are covered by one cubic in their prefix moments
  /// (see Moments()); only the ≤ 2(B−1) samples of the two partial blocks
  /// are evaluated one by one. Exact to rounding (|Δ| ≤ 1e-12 against an
  /// O(n) long-double sum, pinned by kernel_test). Data spread over more
  /// than 1e6 bandwidths (or beyond 1e60 in range, or h below 1e-60) gets
  /// no index and sums the window instead. Other kernels sum the window,
  /// O(log n + window). The one-sided/CDF query path of the selectivity
  /// layer.
  double CdfAt(double x) const;

  /// out[i] = CdfAt(xs[i]).
  void CdfAtMany(std::span<const double> xs, std::span<double> out) const;

  /// Builds the block-moment index of an estimator from Create() now (a
  /// no-op when built — AdoptSorted builds it on adoption — or for kernels
  /// that do not use it). CdfAt builds it on first use; an estimator about
  /// to be shared by concurrent readers calls this (or any CdfAt) once
  /// first, so readers never race to build it.
  void PrepareCdf() const;

  double bandwidth() const { return bandwidth_; }
  const Kernel& kernel() const { return kernel_; }
  size_t sample_size() const { return sorted_.size(); }
  std::span<const double> samples() const { return sorted_; }

 private:
  KernelDensityEstimator(Kernel kernel, double bandwidth, memory::Arena samples);

  /// Double-double prefix sums of Σ(x_i − c)^k, k = 1..3, at every block
  /// boundary, in one arena column (defined in kde.cpp). Built by
  /// AdoptSorted, or lazily on first use after Create(); shared by copies
  /// (it holds values only, valid for any buffer with equal contents), and
  /// never persisted: snapshot restore rebuilds it as it adopts the saved
  /// column.
  struct BlockMoments;
  const BlockMoments& Moments() const;
  /// One pass over `sorted`: whether each value is >= the one before it (so
  /// false on any NaN) and, when `index` is non-null, its block moments —
  /// left empty when the data's scale rules the cubic out.
  static bool Sweep(std::span<const double> sorted, double bandwidth,
                    BlockMoments* index);
  /// Block size of the moment index: a constant, not an option.
  static constexpr size_t kMomentBlock = 64;

  Kernel kernel_;
  double bandwidth_;
  /// One F64 column holding the ascending samples. Never mutated after
  /// construction, so the cached view below stays valid across copies (which
  /// share the storage) and moves.
  memory::Arena samples_;
  std::span<const double> sorted_;
  mutable std::shared_ptr<const BlockMoments> moments_;
};

}  // namespace kernel
}  // namespace wde

#endif  // WDE_KERNEL_KDE_HPP_
