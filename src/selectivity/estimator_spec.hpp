/// \file selectivity/estimator_spec.hpp
/// The declarative construction surface of the selectivity layer: one plain
/// data description (`EstimatorSpec`) from which every registered estimator
/// is built through the spec-aware factory registry. The spec's `tag` IS the
/// estimator's snapshot_type_tag — one string keys live construction
/// (MakeEstimator), sharded wrapping (tag "sharded" + sharded_inner_tag),
/// snapshot restore (the registry rebuilds shells from ShellSpec through the
/// same factories) and the bench/example harnesses, so an estimator is
/// described the same way everywhere it is named. Unused fields are ignored
/// by tags that do not consume them; factories validate the fields they do
/// consume and return a Status instead of aborting on bad configuration.
#ifndef WDE_SELECTIVITY_ESTIMATOR_SPEC_HPP_
#define WDE_SELECTIVITY_ESTIMATOR_SPEC_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/result.hpp"

namespace wde {
namespace parallel {
class ThreadPool;
}  // namespace parallel

namespace selectivity {

class SelectivityEstimator;

/// One description of one estimator. Field groups are consumed per tag:
///   every tag        — tag, domain_lo/domain_hi (except "reservoir", which
///                      declares no domain)
///   "equi-width"     — buckets
///   "equi-depth"     — buckets
///   "haar-synopsis"  — grid_log2, budget, refit_interval (rebuild cadence)
///   "kde-rot"        — refit_interval
///   "wavelet-cv"     — filter, table_levels, j0, j_max, soft_threshold,
///                      refit_interval
///   "reservoir"      — capacity, seed
///   "grid2d"         — dims (must be 2), domain2_lo/domain2_hi, grid_log2
///   "sharded"        — sharded_inner_tag (the prototype's tag; the rest of
///                      the spec configures that prototype), shards,
///                      block_size, pool
struct EstimatorSpec {
  /// Registry key; identical to the estimator's snapshot_type_tag().
  std::string tag = "equi-width";

  /// Dimensionality of the estimator. Every tag has one native
  /// dimensionality (EstimatorRegistry::NativeDims) and its factory rejects
  /// any other value, so a spec cannot silently build an estimator that
  /// ignores half its coordinates. Default 1 — existing specs are untouched.
  int dims = 1;

  // Shared: the declared value domain of axis 0 (and of 1-D estimators).
  double domain_lo = 0.0;
  double domain_hi = 1.0;

  // 2-D estimator (grid2d): the declared value domain of axis 1.
  double domain2_lo = 0.0;
  double domain2_hi = 1.0;

  // Histograms.
  int buckets = 64;

  // Haar synopsis.
  int grid_log2 = 10;
  size_t budget = 64;

  // Wavelet sketch: basis identity (wavelet::WaveletFilter::FromName) and
  // level range.
  std::string filter = "sym8";
  int table_levels = 12;
  int j0 = 2;
  int j_max = 11;
  bool soft_threshold = true;

  /// Refit pacing: the wavelet/KDE refit interval and the synopsis rebuild
  /// interval.
  size_t refit_interval = 1024;

  // Reservoir sample.
  size_t capacity = 256;
  uint64_t seed = 42;

  // Sharded wrapper. The prototype is this same spec re-tagged with
  // sharded_inner_tag (nesting sharded inside sharded is rejected). `pool`
  // is a runtime resource, never part of the description's identity;
  // nullptr uses the process-shared pool.
  std::string sharded_inner_tag = "equi-width";
  size_t shards = 4;
  size_t block_size = 4096;
  parallel::ThreadPool* pool = nullptr;

  /// The minimal valid spec for `tag` at `dims` dimensions (a snapshot
  /// envelope's DIMS chunk): what the registry builds snapshot shells from
  /// (LoadState replaces configuration and data, so shells are as small as
  /// each factory allows — 1 bucket, a 4-cell grid, a coarse Haar basis,
  /// capacity 1, one shard).
  static EstimatorSpec ShellFor(const std::string& tag, int dims);
};

/// Builds the estimator `spec` describes through the process-wide registry.
/// Unknown tags and invalid field values yield a non-OK Result.
Result<std::unique_ptr<SelectivityEstimator>> MakeEstimator(
    const EstimatorSpec& spec);

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_ESTIMATOR_SPEC_HPP_
