#include "stats/rng.hpp"

#include <cmath>

#include "util/check.hpp"

namespace wde {
namespace stats {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double a, double b) { return a + (b - a) * UniformDouble(); }

uint64_t Rng::UniformInt(uint64_t n) {
  WDE_CHECK_GT(n, 0ULL);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = (~0ULL) - (~0ULL) % n;
  uint64_t draw;
  do {
    draw = NextUint64();
  } while (draw >= limit);
  return draw % n;
}

double Rng::Gaussian() {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * factor;
  have_spare_gaussian_ = true;
  return u * factor;
}

void Rng::GaussianPair(double rho, double* z0, double* z1) {
  WDE_CHECK(rho >= -1.0 && rho <= 1.0, "correlation must be in [-1, 1]");
  const double a = Gaussian();
  const double b = Gaussian();
  *z0 = a;
  *z1 = rho * a + std::sqrt(1.0 - rho * rho) * b;
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

Rng Rng::Fork(uint64_t index) const {
  // Mix seed and index through SplitMix64 so substreams are decorrelated.
  uint64_t s = seed_ ^ (0xD1B54A32D192ED03ULL * (index + 1));
  const uint64_t mixed = SplitMix64(s);
  return Rng(mixed);
}

Rng::State Rng::SaveState() const {
  State state;
  for (size_t i = 0; i < 4; ++i) state.state[i] = state_[i];
  state.seed = seed_;
  state.have_spare_gaussian = have_spare_gaussian_;
  state.spare_gaussian = spare_gaussian_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (size_t i = 0; i < 4; ++i) state_[i] = state.state[i];
  seed_ = state.seed;
  have_spare_gaussian_ = state.have_spare_gaussian;
  spare_gaussian_ = state.spare_gaussian;
}

std::vector<double> UniformSample(Rng& rng, size_t n) {
  std::vector<double> out(n);
  for (double& x : out) x = rng.UniformDouble();
  return out;
}

}  // namespace stats
}  // namespace wde
