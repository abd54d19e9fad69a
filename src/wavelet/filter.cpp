#include "wavelet/filter.hpp"

#include <array>
#include <cmath>
#include <complex>
#include <mutex>
#include <optional>

#include "numerics/polynomial.hpp"
#include "numerics/special_functions.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace wavelet {
namespace {

using numerics::Complex;

constexpr double kSqrt2 = 1.4142135623730951;

/// A group of roots of the half-band polynomial that must be kept together to
/// preserve real filter coefficients: either one real y-root or a complex
/// conjugate pair. Each group offers two z-domain choices (inside or outside
/// the unit circle), which all give the same |m0|² but different phases.
struct RootGroup {
  std::vector<Complex> inside;   // |z| < 1 representatives
  std::vector<Complex> outside;  // reciprocal representatives
};

/// Maps a root y of the half-band polynomial to the z-domain pair solving
/// z² − (2 − 4y) z + 1 = 0 (so that y = (2 − z − 1/z)/4, i.e.
/// sin²(ω/2) ↦ e^{−iω}). Returns the root with |z| < 1; the other is 1/z.
Complex InsideUnitCircleRoot(Complex y) {
  const Complex b = Complex(2.0, 0.0) - 4.0 * y;
  const Complex disc = std::sqrt(b * b - 4.0);
  Complex z1 = (b + disc) / 2.0;
  Complex z2 = (b - disc) / 2.0;
  return std::abs(z1) <= std::abs(z2) ? z1 : z2;
}

/// Assembles the filter h from the chosen z-roots of the "root half" and the
/// (1+z)^N factor, normalizing to Σ h = √2. Coefficients come out real up to
/// rounding; the imaginary residue is dropped.
std::vector<double> AssembleFilter(int n_moments, const std::vector<Complex>& zroots) {
  std::vector<Complex> poly{Complex(1.0, 0.0)};
  for (int i = 0; i < n_moments; ++i) {
    poly = numerics::MultiplyPolynomials(
        poly, std::vector<Complex>{Complex(1.0, 0.0), Complex(1.0, 0.0)});
  }
  for (const Complex& z : zroots) {
    poly = numerics::MultiplyPolynomials(
        poly, std::vector<Complex>{-z, Complex(1.0, 0.0)});
  }
  std::vector<double> h(poly.size());
  double sum = 0.0;
  for (size_t i = 0; i < poly.size(); ++i) {
    h[i] = poly[i].real();
    sum += h[i];
  }
  const double scale = kSqrt2 / sum;
  for (double& c : h) c *= scale;
  return h;
}

/// Weighted phase-nonlinearity score of the frequency response
/// H(ω) = Σ h_k e^{−iωk}: unwraps arg H on (0, π), removes the best-fit
/// linear-in-ω component, and returns the |H|²-weighted RMS deviation.
/// Least-asymmetric filters minimize this.
double PhaseNonlinearity(const std::vector<double>& h) {
  const int kGrid = 256;
  double prev_phase = 0.0;
  double unwrap_offset = 0.0;
  std::vector<double> omegas, phases, weights;
  omegas.reserve(kGrid);
  for (int m = 1; m < kGrid; ++m) {
    const double omega = M_PI * m / kGrid;
    Complex resp(0.0, 0.0);
    for (size_t k = 0; k < h.size(); ++k) {
      resp += h[k] * std::exp(Complex(0.0, -omega * static_cast<double>(k)));
    }
    const double mag2 = std::norm(resp);
    if (mag2 < 1e-12) continue;
    double phase = std::arg(resp);
    // Unwrap: keep phase continuous relative to the previous sample.
    while (phase + unwrap_offset - prev_phase > M_PI) unwrap_offset -= 2.0 * M_PI;
    while (phase + unwrap_offset - prev_phase < -M_PI) unwrap_offset += 2.0 * M_PI;
    phase += unwrap_offset;
    prev_phase = phase;
    omegas.push_back(omega);
    phases.push_back(phase);
    weights.push_back(mag2);
  }
  // Weighted least-squares slope through the origin.
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < omegas.size(); ++i) {
    num += weights[i] * phases[i] * omegas[i];
    den += weights[i] * omegas[i] * omegas[i];
  }
  const double slope = den > 0.0 ? num / den : 0.0;
  double score = 0.0;
  double wsum = 0.0;
  for (size_t i = 0; i < omegas.size(); ++i) {
    const double dev = phases[i] - slope * omegas[i];
    score += weights[i] * dev * dev;
    wsum += weights[i];
  }
  return wsum > 0.0 ? std::sqrt(score / wsum) : 0.0;
}

/// Finds the half-band polynomial roots grouped by conjugation.
Result<std::vector<RootGroup>> HalfBandRootGroups(int n_moments) {
  // P(y) = Σ_{k=0}^{N−1} C(N−1+k, k) y^k  (Daubechies' construction).
  std::vector<double> p(static_cast<size_t>(n_moments), 0.0);
  for (int k = 0; k < n_moments; ++k) {
    p[static_cast<size_t>(k)] = numerics::BinomialCoefficient(n_moments - 1 + k, k);
  }
  Result<std::vector<Complex>> roots = numerics::FindPolynomialRoots(p);
  if (!roots.ok()) return roots.status();

  std::vector<RootGroup> groups;
  std::vector<bool> used(roots->size(), false);
  const double kImagTol = 1e-9;
  for (size_t i = 0; i < roots->size(); ++i) {
    if (used[i]) continue;
    used[i] = true;
    const Complex y = (*roots)[i];
    RootGroup group;
    if (std::fabs(y.imag()) < kImagTol) {
      const Complex z = InsideUnitCircleRoot(Complex(y.real(), 0.0));
      group.inside = {z};
      group.outside = {1.0 / z};
    } else {
      // Find and consume the conjugate partner.
      size_t partner = i;
      double best = 1e300;
      for (size_t j = i + 1; j < roots->size(); ++j) {
        if (used[j]) continue;
        const double dist = std::abs((*roots)[j] - std::conj(y));
        if (dist < best) {
          best = dist;
          partner = j;
        }
      }
      if (partner == i || best > 1e-6) {
        return Status::Internal("conjugate root pairing failed");
      }
      used[partner] = true;
      const Complex z = InsideUnitCircleRoot(y);
      group.inside = {z, std::conj(z)};
      group.outside = {1.0 / z, std::conj(1.0 / z)};
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

Result<std::vector<double>> BuildCoefficients(int n_moments, bool least_asymmetric) {
  Result<std::vector<RootGroup>> groups = HalfBandRootGroups(n_moments);
  if (!groups.ok()) return groups.status();

  const size_t n_groups = groups->size();
  std::vector<double> best_filter;
  double best_score = 1e300;
  const size_t combos = least_asymmetric ? (1ULL << n_groups) : 1;
  for (size_t mask = 0; mask < combos; ++mask) {
    std::vector<Complex> zroots;
    for (size_t gi = 0; gi < n_groups; ++gi) {
      const RootGroup& g = (*groups)[gi];
      const std::vector<Complex>& chosen =
          ((mask >> gi) & 1ULL) ? g.outside : g.inside;
      zroots.insert(zroots.end(), chosen.begin(), chosen.end());
    }
    std::vector<double> h = AssembleFilter(n_moments, zroots);
    const double score = least_asymmetric ? PhaseNonlinearity(h) : 0.0;
    if (score < best_score) {
      best_score = score;
      best_filter = std::move(h);
    }
  }
  if (best_filter.empty()) return Status::Internal("filter assembly produced nothing");
  return best_filter;
}

}  // namespace

WaveletFilter::WaveletFilter(std::vector<double> h, int vanishing_moments,
                             std::string name)
    : h_(std::move(h)), vanishing_moments_(vanishing_moments), name_(std::move(name)) {
  const size_t len = h_.size();
  g_.resize(len);
  for (size_t k = 0; k < len; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    g_[k] = sign * h_[len - 1 - k];
  }
}

WaveletFilter WaveletFilter::Haar() {
  static const WaveletFilter haar({1.0 / kSqrt2, 1.0 / kSqrt2}, 1, "haar");
  return haar;
}

Result<WaveletFilter> WaveletFilter::Daubechies(int vanishing_moments) {
  return Derived(vanishing_moments, /*least_asymmetric=*/false);
}

Result<WaveletFilter> WaveletFilter::Symmlet(int vanishing_moments) {
  return Derived(vanishing_moments, /*least_asymmetric=*/true);
}

Result<WaveletFilter> WaveletFilter::Derived(int vanishing_moments,
                                             bool least_asymmetric) {
  const char* family = least_asymmetric ? "Symmlet" : "Daubechies";
  if (vanishing_moments < 1 || vanishing_moments > 10) {
    return Status::InvalidArgument(Format("%s order %d unsupported (want 1..10)", family,
                                          vanishing_moments));
  }
  if (vanishing_moments == 1) return Haar();
  // One slot per (family, order), filled once: the Symmlet root-group search
  // costs milliseconds and its outcome never changes. The order is
  // range-checked above, so no input can add a slot or evict one; a caller
  // racing the build waits in call_once for its outcome.
  struct Slot {
    std::once_flag once;
    std::optional<Result<WaveletFilter>> filter;
  };
  static std::array<Slot, 20> memo;
  Slot& slot = memo[(least_asymmetric ? 10 : 0) + (vanishing_moments - 1)];
  std::call_once(slot.once, [&] {
    Result<std::vector<double>> h =
        BuildCoefficients(vanishing_moments, least_asymmetric);
    if (!h.ok()) {
      slot.filter.emplace(h.status());
      return;
    }
    WaveletFilter filter(std::move(h).value(), vanishing_moments,
                         Format("%s%d", least_asymmetric ? "sym" : "db",
                                vanishing_moments));
    if (filter.OrthonormalityDefect() > 1e-8) {
      slot.filter.emplace(Status::Internal(
          Format("constructed %s filter fails orthonormality", family)));
      return;
    }
    slot.filter.emplace(std::move(filter));
  });
  return *slot.filter;
}

Result<WaveletFilter> WaveletFilter::FromName(const std::string& name) {
  if (name == "haar") return Haar();
  const auto parse_order = [&name](size_t prefix_len) -> int {
    if (name.size() <= prefix_len || name.size() > prefix_len + 2) return -1;
    int order = 0;
    for (size_t i = prefix_len; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') return -1;
      order = order * 10 + (name[i] - '0');
    }
    return order;
  };
  if (name.rfind("db", 0) == 0) {
    const int order = parse_order(2);
    if (order >= 1) return Daubechies(order);
  } else if (name.rfind("sym", 0) == 0) {
    const int order = parse_order(3);
    if (order >= 1) return Symmlet(order);
  }
  return Status::InvalidArgument(Format("unknown wavelet filter name '%s'",
                                        name.c_str()));
}

double WaveletFilter::OrthonormalityDefect() const {
  const int len = length();
  double defect = 0.0;
  for (int m = 0; 2 * m < len; ++m) {
    double acc = 0.0;
    for (int k = 0; k + 2 * m < len; ++k) acc += h_[k] * h_[k + 2 * m];
    const double target = (m == 0) ? 1.0 : 0.0;
    defect = std::max(defect, std::fabs(acc - target));
  }
  return defect;
}

}  // namespace wavelet
}  // namespace wde
