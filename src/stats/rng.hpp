/// \file stats/rng.hpp
/// Entry header of the `stats` module: the deterministic RNG that all
/// experiment randomness must flow through. Invariants: identical seeds give
/// identical streams on every platform/compiler (xoshiro256** + SplitMix64;
/// no std::*_distribution anywhere in the library), and Monte-Carlo
/// replicate r always draws from an RNG forked deterministically from
/// (seed, r) — see harness/monte_carlo.hpp — so paper tables reproduce
/// bit-for-bit at any thread count.
#ifndef WDE_STATS_RNG_HPP_
#define WDE_STATS_RNG_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wde {
namespace stats {

/// Deterministic, cross-platform random number generator (xoshiro256**
/// seeded by SplitMix64). The standard library's distribution objects are
/// implementation-defined, so all variate generation is implemented here to
/// make experiments exactly reproducible across compilers.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 bits.
  uint64_t NextUint64();

  /// Uniform on [0, 1) with 53-bit resolution.
  double UniformDouble();

  /// Uniform on [a, b).
  double Uniform(double a, double b);

  /// Uniform integer in [0, n).
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via the Marsaglia polar method.
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

  /// A correlated standard-normal pair with correlation `rho` in [-1, 1]:
  /// z0 ~ N(0,1), z1 = rho*z0 + sqrt(1-rho^2)*w with w ~ N(0,1) independent.
  /// The 2-D synthetic-data generators build covariant Gaussian mixtures from
  /// this (multidim/synthetic2d.hpp). Draws exactly two Gaussian variates, so
  /// interleaving with Gaussian() stays deterministic.
  void GaussianPair(double rho, double* z0, double* z1);

  /// Bernoulli trial.
  bool Bernoulli(double p);

  /// Derives an independent generator for substream `index` (e.g. one per
  /// Monte-Carlo replicate). Deterministic in (seed, index).
  Rng Fork(uint64_t index) const;

  /// The seed this generator was constructed with (also the seed Fork mixes).
  uint64_t seed() const { return seed_; }

  /// Complete generator state, exposed so snapshot code can persist an RNG
  /// mid-stream and resume it bit-exactly (see io/serialize.hpp — the stats
  /// module itself stays independent of the wire format).
  struct State {
    uint64_t state[4] = {0, 0, 0, 0};
    uint64_t seed = 0;
    bool have_spare_gaussian = false;
    double spare_gaussian = 0.0;
  };

  State SaveState() const;
  /// Restores a previously saved state; the draw sequence continues exactly
  /// where SaveState left it.
  void RestoreState(const State& state);

  // UniformRandomBitGenerator interface, so the engine composes with
  // std::shuffle and friends.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return NextUint64(); }

 private:
  uint64_t state_[4];
  uint64_t seed_;
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// n iid U[0,1) draws.
std::vector<double> UniformSample(Rng& rng, size_t n);

}  // namespace stats
}  // namespace wde

#endif  // WDE_STATS_RNG_HPP_
