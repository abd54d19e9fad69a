/// \file harness/monte_carlo.hpp
/// Entry header of the `harness` module: the replication engine behind every
/// paper table/figure (M replicates of an experiment, e.g. Table 1's M = 500,
/// n = 2^10 MISE runs). Invariants: replicate r receives an RNG forked
/// deterministically from (seed, r), so results are identical for any thread
/// count and machine.
#ifndef WDE_HARNESS_MONTE_CARLO_HPP_
#define WDE_HARNESS_MONTE_CARLO_HPP_

#include <functional>
#include <vector>

#include "stats/rng.hpp"

namespace wde {
namespace harness {

/// Runs `replicates` independent replicates of a vector-valued experiment;
/// every replicate must return `dim` values and the replicate-wise mean
/// curve is returned. Replicate r receives an RNG forked deterministically
/// from (seed, r), so results are identical for any thread count. Used for
/// the paper's "mean of the estimators" figures.
std::vector<double> MeanCurve(
    int replicates, uint64_t seed, int threads, size_t dim,
    const std::function<std::vector<double>(stats::Rng&, int)>& body);

/// MeanCurve's replicates, returning all replicate rows (replicates × dim).
std::vector<std::vector<double>> CollectCurves(
    int replicates, uint64_t seed, int threads, size_t dim,
    const std::function<std::vector<double>(stats::Rng&, int)>& body);

/// Chunked parallel-for over [0, count) with at most `threads` concurrent
/// workers (serial when threads <= 1), executed on the process-wide
/// parallel::ThreadPool::Shared() executor — so the effective width is also
/// capped by that pool's size (hardware concurrency), unlike the old
/// spawn-per-call implementation which honored any `threads` value. The body
/// must be safe to run concurrently for distinct indices.
void ParallelFor(int count, int threads, const std::function<void(int)>& body);

}  // namespace harness
}  // namespace wde

#endif  // WDE_HARNESS_MONTE_CARLO_HPP_
