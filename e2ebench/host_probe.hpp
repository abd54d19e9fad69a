// A fixed reference computation that tells how fast the host runs code like
// the library's at this moment, on the calling thread's CPU.
//
// On shared virtual machines the same call on the same data can take 1.8x
// longer for stretches of a fraction of a second to a minute, set by load
// outside the guest. A pure register loop does not slow down in those
// stretches, and neither does a dependent chain of random lookups in a 1 MB
// table; a short quantile bisection over a sparse multi-level table sum,
// the shape of the library's wavelet CDF, slows by about 1.4x where the
// answer path slows by 1.8x. The benchmark times such a bisection on the
// reader and writer threads next to the calls they time and reports each
// sample scaled by Scale(), so that the host's state decides less of a run.
//
// The probe is the benchmark's own code and data (a fixed table and fixed
// coefficients), never the library's: a change to the library moves the
// measured calls and leaves the probe where it is.
#ifndef WDE_E2EBENCH_HOST_PROBE_HPP_
#define WDE_E2EBENCH_HOST_PROBE_HPP_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {

class HostProbe {
 public:
  /// The probe time, in microseconds, at which samples are reported: about
  /// its time between read batches on the 4-vCPU KVM guest (Intel Xeon) the
  /// benchmark was defined on.
  static constexpr double kReferenceUs = 40.0;
  /// Scale() uses the median of this many latest probe times.
  static constexpr size_t kWindow = 5;

  HostProbe() : table_(kSupport * kPerUnit + 1), coef_(size_t{kLevels} << kMaxLevel) {
    for (size_t i = 0; i < table_.size(); ++i) {
      table_[i] = std::sin(static_cast<double>(i) * 1e-3);
    }
    // Half the coefficients are zero, at scattered positions, as after
    // thresholding.
    uint64_t state = 0x9E3779B97F4A7C15ull;
    for (double& c : coef_) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t bits = state >> 11;
      c = (bits & 1) != 0 ? 0.0 : static_cast<double>(bits % 2001) * 1e-6 - 1e-3;
    }
  }

  /// Runs the probe once and returns kReferenceUs over the median of the
  /// last kWindow probe times: the factor that brings a time measured now on
  /// this CPU to the reference speed.
  double Scale() {
    recent_[next_++ % kWindow] = RunUs();
    const size_t n = std::min(next_, kWindow);
    std::array<double, kWindow> sorted = recent_;
    std::sort(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(n));
    return kReferenceUs / sorted[n / 2];
  }

 private:
  /// Runs one bisection and returns its wall time in microseconds.
  double RunUs() {
    const auto t0 = std::chrono::steady_clock::now();
    double lo = 0.0;
    double hi = 1.0;
    const double p = 0.5 + 1e-3 * static_cast<double>(next_ % 64);
    for (int step = 0; step < kSteps; ++step) {
      const double mid = 0.5 * (lo + hi);
      if (Sum(mid) < p) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    sink_ = lo;  // a volatile store: the bisection cannot be optimized away
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     t0)
        .count();
  }

  static constexpr int kSupport = 15;  // sym8
  static constexpr int kPerUnit = 4096;
  static constexpr int kMinLevel = 2;
  static constexpr int kMaxLevel = 11;
  static constexpr int kLevels = kMaxLevel - kMinLevel + 1;
  static constexpr int kSteps = 50;

  double Lookup(double x) const {
    if (x <= 0.0) return 0.0;
    if (x >= kSupport) return table_.back();
    const double pos = x * kPerUnit;
    const size_t i = static_cast<size_t>(pos);
    const double f = pos - static_cast<double>(i);
    return table_[i] + f * (table_[i + 1] - table_[i]);
  }

  /// A signed sum over every level's translates whose support covers t.
  double Sum(double t) const {
    double acc = 0.0;
    for (int j = kMinLevel; j <= kMaxLevel; ++j) {
      const double scale = std::ldexp(1.0, j);
      const int k_first = std::max(0, static_cast<int>(std::ceil(scale * t)) - kSupport);
      const int k_last = std::min((1 << j) - 1, static_cast<int>(std::floor(scale * t)));
      const double* level = coef_.data() + (static_cast<size_t>(j - kMinLevel) << kMaxLevel);
      for (int k = k_first; k <= k_last; ++k) {
        const double c = level[k];
        if (c == 0.0) continue;
        acc += c * (Lookup(scale * t - k) - Lookup(-k)) / std::sqrt(scale);
      }
    }
    return acc;
  }

  std::vector<double> table_;
  std::vector<double> coef_;
  volatile double sink_ = 0.0;
  std::array<double, kWindow> recent_ = {};
  size_t next_ = 0;
};

}  // namespace e2e

#endif  // WDE_E2EBENCH_HOST_PROBE_HPP_
