#include "harness/monte_carlo.hpp"

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace wde {
namespace harness {

void ParallelFor(int count, int threads, const std::function<void(int)>& body) {
  // Delegates to the process-wide shared executor instead of spawning (and
  // joining) a fresh thread set per call; `threads` caps the parallel width.
  // Replicate results stay identical for any thread count because each index
  // writes only its own slot (see the RNG-forking contract above).
  parallel::ThreadPool::Shared().ParallelFor(count, threads, body);
}

std::vector<std::vector<double>> CollectCurves(
    int replicates, uint64_t seed, int threads, size_t dim,
    const std::function<std::vector<double>(stats::Rng&, int)>& body) {
  WDE_CHECK_GT(replicates, 0);
  std::vector<std::vector<double>> rows(static_cast<size_t>(replicates));
  const stats::Rng root(seed);
  ParallelFor(replicates, threads, [&](int rep) {
    stats::Rng rng = root.Fork(static_cast<uint64_t>(rep));
    std::vector<double> row = body(rng, rep);
    WDE_CHECK_EQ(row.size(), dim, "replicate returned wrong curve length");
    rows[static_cast<size_t>(rep)] = std::move(row);
  });
  return rows;
}

std::vector<double> MeanCurve(
    int replicates, uint64_t seed, int threads, size_t dim,
    const std::function<std::vector<double>(stats::Rng&, int)>& body) {
  const std::vector<std::vector<double>> rows =
      CollectCurves(replicates, seed, threads, dim, body);
  std::vector<double> mean(dim, 0.0);
  for (const std::vector<double>& row : rows) {
    for (size_t i = 0; i < dim; ++i) mean[i] += row[i];
  }
  for (double& v : mean) v /= static_cast<double>(replicates);
  return mean;
}

}  // namespace harness
}  // namespace wde
