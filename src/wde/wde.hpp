/// \file wde/wde.hpp
/// Umbrella header for the whole WDE library — the public API surface of this
/// reproduction of *Adaptive Density Estimation* (VLDB 2006).
///
/// Including this single header pulls in every public module header, bottom of
/// the dependency graph first:
///
///   util        — Status/Result error model, WDE_CHECK, string helpers
///   io          — versioned snapshot wire format (sinks/sources, CRC chunks)
///   memory      — columnar copy-on-write arenas under the estimators'
///                 fitted buffers
///   parallel    — the shared ThreadPool executor behind every parallel path
///   numerics    — integration, interpolation, linear algebra, optimisation
///   stats       — RNG, descriptive stats, Kolmogorov–Smirnov distance,
///                 losses, autocovariance
///   wavelet     — Daubechies filters, cascade tables, discrete wavelet
///                 transform
///   kernel      — kernel functions, bandwidth selectors, KDE baseline
///   processes   — the paper's data-generating processes (Section 5)
///   core        — wavelet coefficient estimation, thresholding and its
///                 cross-validation, the adaptive density estimator
///   selectivity — wavelet/KDE/histogram/sample selectivity estimators over
///                 range-query workloads, plus the sharded parallel ingest
///                 wrapper over any mergeable estimator
///   serving     — the concurrent serving engine: epoch-published immutable
///                 estimator views with lock-free steady-state readers,
///                 checkpoints
///   diagnostics — mixing/covariance-decay diagnostics
///   harness     — Monte-Carlo replication harness and experiment configs
///
/// The library never throws: fallible operations return wde::Result<T> (see
/// util/result.hpp) and contract violations abort via WDE_CHECK. A minimal
/// translation unit containing only `#include "wde/wde.hpp"` must always
/// compile; tests/umbrella_test.cpp enforces this invariant.
#ifndef WDE_WDE_HPP_
#define WDE_WDE_HPP_

// util — foundation; no intra-library dependencies.
#include "util/check.hpp"
#include "util/result.hpp"
#include "util/status.hpp"
#include "util/string_util.hpp"

// io — depends on util. Snapshot wire format: byte sinks/sources, primitive
// encodings, CRC-framed chunks.
#include "io/chunk.hpp"
#include "io/serialize.hpp"

// memory — depends on util. Columnar copy-on-write arenas.
#include "memory/arena.hpp"

// parallel — depends on util.
#include "parallel/thread_pool.hpp"

// numerics — depends on util.
#include "numerics/integration.hpp"
#include "numerics/interpolation.hpp"
#include "numerics/matrix.hpp"
#include "numerics/optimize.hpp"
#include "numerics/polynomial.hpp"
#include "numerics/special_functions.hpp"

// stats — depends on numerics, util.
#include "stats/autocovariance.hpp"
#include "stats/descriptive.hpp"
#include "stats/empirical.hpp"
#include "stats/loss.hpp"
#include "stats/rng.hpp"

// wavelet — depends on numerics, util.
#include "wavelet/cascade.hpp"
#include "wavelet/dwt.hpp"
#include "wavelet/filter.hpp"
#include "wavelet/scaled_function.hpp"

// kernel — depends on stats, numerics, util.
#include "kernel/bandwidth.hpp"
#include "kernel/kde.hpp"
#include "kernel/kernels.hpp"

// multidim — depends on stats, numerics, util.
#include "multidim/grid2d.hpp"
#include "multidim/synthetic2d.hpp"

// processes — depends on stats, numerics, util.
#include "processes/ar1_process.hpp"
#include "processes/arch_process.hpp"
#include "processes/doubling_map.hpp"
#include "processes/iid_process.hpp"
#include "processes/larch_process.hpp"
#include "processes/linear_process.hpp"
#include "processes/logistic_map.hpp"
#include "processes/lsv_map.hpp"
#include "processes/noncausal_ma.hpp"
#include "processes/process.hpp"
#include "processes/target_density.hpp"
#include "processes/transformed_process.hpp"

// core — depends on wavelet, stats, numerics, util.
#include "core/adaptive.hpp"
#include "core/binned.hpp"
#include "core/coefficients.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/thresholding.hpp"

// selectivity — depends on core, kernel, wavelet, stats, io, util.
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/grid2d_selectivity.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"

// serving — depends on selectivity, parallel, io, util.
#include "serving/estimator_service.hpp"

// diagnostics — depends on stats, util.
#include "diagnostics/covariance_decay.hpp"

// harness — depends on processes, stats, util.
#include "harness/cases.hpp"
#include "harness/experiment_config.hpp"
#include "harness/monte_carlo.hpp"
#include "harness/table.hpp"

#endif  // WDE_WDE_HPP_
