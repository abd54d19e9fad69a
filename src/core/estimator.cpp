#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/optimize.hpp"
#include "numerics/simd.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace core {

double WaveletEstimate::Evaluate(double x) const {
  const double t = (x - lo_) / width_;
  if (t < 0.0 || t > 1.0) return 0.0;
  double acc = 0.0;
  {
    const wavelet::TranslationWindow window = basis_.PointWindow(j0_, t);
    for (int k = window.lo; k <= window.hi; ++k) {
      const int idx = k - scaling_k_lo_;
      if (idx < 0 || idx >= static_cast<int>(alpha_.size())) continue;
      acc += alpha_[static_cast<size_t>(idx)] * basis_.PhiJk(j0_, k, t);
    }
  }
  for (const DetailLevel& level : details_) {
    if (level.kept == 0) continue;
    const wavelet::TranslationWindow window = basis_.PointWindow(level.j, t);
    for (int k = window.lo; k <= window.hi; ++k) {
      const int idx = k - level.k_lo;
      if (idx < 0 || idx >= static_cast<int>(level.theta.size())) continue;
      const double theta = level.theta[static_cast<size_t>(idx)];
      if (theta == 0.0) continue;
      acc += theta * basis_.PsiJk(level.j, k, t);
    }
  }
  return acc / width_;
}

void WaveletEstimate::EvaluateMany(std::span<const double> xs,
                                   std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "EvaluateMany spans must match");
  const size_t n = xs.size();
  std::vector<double> ts(n);
  const double lo = lo_;
  const double width = width_;
  WDE_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) ts[i] = (xs[i] - lo) / width;
  for (size_t i = 0; i < n; ++i) out[i] = 0.0;
  {
    const wavelet::ScaledLevelEvaluator eval = basis_.PhiLevel(j0_);
    const double* alpha = alpha_.data();
    const int n_alpha = static_cast<int>(alpha_.size());
    const int k_lo = scaling_k_lo_;
    for (size_t i = 0; i < n; ++i) {
      const double t = ts[i];
      if (t < 0.0 || t > 1.0) continue;
      eval.AccumulateWeighted(t, alpha, k_lo, n_alpha, &out[i]);
    }
  }
  for (const DetailLevel& level : details_) {
    if (level.kept == 0) continue;
    const wavelet::ScaledLevelEvaluator eval = basis_.PsiLevel(level.j);
    const double* theta = level.theta.data();
    const int n_theta = static_cast<int>(level.theta.size());
    const int k_lo = level.k_lo;
    for (size_t i = 0; i < n; ++i) {
      const double t = ts[i];
      if (t < 0.0 || t > 1.0) continue;
      eval.AccumulateWeighted(t, theta, k_lo, n_theta, &out[i]);
    }
  }
  // Select instead of branch so the normalization vectorizes; out-of-domain
  // lanes keep their (zero) value exactly as the scalar loop leaves them.
  WDE_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) {
    const double t = ts[i];
    const bool in_domain = t >= 0.0 && t <= 1.0;
    out[i] = in_domain ? out[i] / width : out[i];
  }
}

std::vector<double> WaveletEstimate::EvaluateOnGrid(double lo, double hi,
                                                    size_t points) const {
  WDE_CHECK_GE(points, 2u);
  WDE_CHECK_LT(lo, hi);
  std::vector<double> xs(points);
  const double dx = (hi - lo) / static_cast<double>(points - 1);
  for (size_t i = 0; i < points; ++i) xs[i] = lo + dx * static_cast<double>(i);
  std::vector<double> out(points);
  EvaluateMany(xs, out);
  return out;
}

namespace {

/// ∫_{ta}^{tb} δ_{j,k}(t) dt = 2^{-j/2} [Δ(2^j tb − k) − Δ(2^j ta − k)]
/// where Δ is the mother antiderivative.
double ScaledIntegral(double anti_hi, double anti_lo, int j) {
  return (anti_hi - anti_lo) * std::exp2(-0.5 * static_cast<double>(j));
}

}  // namespace

double WaveletEstimate::IntegrateRange(double a, double b) const {
  if (b < a) std::swap(a, b);
  const double ta = std::clamp((a - lo_) / width_, 0.0, 1.0);
  const double tb = std::clamp((b - lo_) / width_, 0.0, 1.0);
  if (tb <= ta) return 0.0;
  const int support = basis_.support_length();
  double acc = 0.0;
  {
    const double scale = std::ldexp(1.0, j0_);
    const int k_first = std::max(scaling_k_lo_,
                                 static_cast<int>(std::ceil(scale * ta)) - support);
    const int k_last =
        std::min(scaling_k_lo_ + static_cast<int>(alpha_.size()) - 1,
                 static_cast<int>(std::floor(scale * tb)));
    for (int k = k_first; k <= k_last; ++k) {
      const double coeff = alpha_[static_cast<size_t>(k - scaling_k_lo_)];
      if (coeff == 0.0) continue;
      acc += coeff * ScaledIntegral(basis_.PhiAntiderivative(scale * tb - k),
                                    basis_.PhiAntiderivative(scale * ta - k), j0_);
    }
  }
  for (const DetailLevel& level : details_) {
    if (level.kept == 0) continue;
    const double scale = std::ldexp(1.0, level.j);
    const int k_first =
        std::max(level.k_lo, static_cast<int>(std::ceil(scale * ta)) - support);
    const int k_last = std::min(level.k_lo + static_cast<int>(level.theta.size()) - 1,
                                static_cast<int>(std::floor(scale * tb)));
    for (int k = k_first; k <= k_last; ++k) {
      const double coeff = level.theta[static_cast<size_t>(k - level.k_lo)];
      if (coeff == 0.0) continue;
      acc += coeff * ScaledIntegral(basis_.PsiAntiderivative(scale * tb - k),
                                    basis_.PsiAntiderivative(scale * ta - k), level.j);
    }
  }
  return acc;
}

void WaveletEstimate::IntegrateRangeMany(std::span<const double> a,
                                         std::span<const double> b,
                                         std::span<double> out) const {
  WDE_CHECK(a.size() == b.size() && a.size() == out.size(),
            "IntegrateRangeMany spans must match");
  const size_t n = a.size();
  std::vector<double> ta(n), tb(n);
  for (size_t i = 0; i < n; ++i) {
    double x = a[i];
    double y = b[i];
    if (y < x) std::swap(x, y);
    ta[i] = std::clamp((x - lo_) / width_, 0.0, 1.0);
    tb[i] = std::clamp((y - lo_) / width_, 0.0, 1.0);
  }
  for (size_t i = 0; i < n; ++i) out[i] = 0.0;
  const int support = basis_.support_length();
  {
    const wavelet::ScaledLevelEvaluator eval = basis_.PhiLevel(j0_);
    const double scale = std::ldexp(1.0, j0_);
    const double factor = std::exp2(-0.5 * static_cast<double>(j0_));
    const double* alpha = alpha_.data();
    const int k_lo = scaling_k_lo_;
    const int k_hi = k_lo + static_cast<int>(alpha_.size()) - 1;
    for (size_t i = 0; i < n; ++i) {
      if (tb[i] <= ta[i]) continue;
      const int k_first =
          std::max(k_lo, static_cast<int>(std::ceil(scale * ta[i])) - support);
      const int k_last = std::min(k_hi, static_cast<int>(std::floor(scale * tb[i])));
      for (int k = k_first; k <= k_last; ++k) {
        const double coeff = alpha[k - k_lo];
        if (coeff == 0.0) continue;
        out[i] += coeff * ((eval.AntiderivativeAt(k, tb[i]) -
                            eval.AntiderivativeAt(k, ta[i])) *
                           factor);
      }
    }
  }
  for (const DetailLevel& level : details_) {
    if (level.kept == 0) continue;
    const wavelet::ScaledLevelEvaluator eval = basis_.PsiLevel(level.j);
    const double scale = std::ldexp(1.0, level.j);
    const double factor = std::exp2(-0.5 * static_cast<double>(level.j));
    const double* theta = level.theta.data();
    const int k_lo = level.k_lo;
    const int k_hi = k_lo + static_cast<int>(level.theta.size()) - 1;
    for (size_t i = 0; i < n; ++i) {
      if (tb[i] <= ta[i]) continue;
      const int k_first =
          std::max(k_lo, static_cast<int>(std::ceil(scale * ta[i])) - support);
      const int k_last = std::min(k_hi, static_cast<int>(std::floor(scale * tb[i])));
      for (int k = k_first; k <= k_last; ++k) {
        const double coeff = theta[k - k_lo];
        if (coeff == 0.0) continue;
        out[i] += coeff * ((eval.AntiderivativeAt(k, tb[i]) -
                            eval.AntiderivativeAt(k, ta[i])) *
                           factor);
      }
    }
  }
}

double WaveletEstimate::TotalMass() const {
  return IntegrateRange(domain_lo(), domain_hi());
}

double WaveletEstimate::Quantile(double u) const {
  WDE_CHECK(u >= 0.0 && u <= 1.0, "quantile level must be in [0,1]");
  if (u <= 0.0) return domain_lo();
  if (u >= 1.0) return domain_hi();
  const double mass = TotalMass();
  WDE_CHECK_GT(mass, 0.0, "cannot take quantiles of a zero-mass estimate");
  return numerics::BisectMonotone(
      [this](double x) { return IntegrateRange(domain_lo(), x); }, u * mass,
      domain_lo(), domain_hi());
}

int WaveletEstimate::j_max() const {
  return details_.empty() ? j0_ - 1 : details_.back().j;
}

double WaveletEstimate::ThresholdedFraction(int j) const {
  for (const DetailLevel& level : details_) {
    if (level.j == j) {
      if (level.theta.empty()) return 1.0;
      return 1.0 -
             static_cast<double>(level.kept) / static_cast<double>(level.theta.size());
    }
  }
  return 1.0;
}

Status WaveletEstimate::Serialize(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, lo_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, width_));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, j0_));
  WDE_RETURN_IF_ERROR(io::WriteI32(sink, scaling_k_lo_));
  WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, alpha_));
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, details_.size()));
  for (const DetailLevel& level : details_) {
    WDE_RETURN_IF_ERROR(io::WriteI32(sink, level.j));
    WDE_RETURN_IF_ERROR(io::WriteI32(sink, level.k_lo));
    WDE_RETURN_IF_ERROR(io::WriteI32(sink, level.kept));
    WDE_RETURN_IF_ERROR(io::WriteDoubleVector(sink, level.theta));
  }
  return Status::OK();
}

Result<WaveletEstimate> WaveletEstimate::Deserialize(
    const wavelet::WaveletBasis& basis, io::Source& source) {
  WaveletEstimate estimate(basis);
  WDE_ASSIGN_OR_RETURN(estimate.lo_, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(estimate.width_, io::ReadDouble(source));
  if (!std::isfinite(estimate.lo_) || !(estimate.width_ > 0.0) ||
      !std::isfinite(estimate.width_)) {
    return Status::InvalidArgument("corrupt estimate domain");
  }
  WDE_ASSIGN_OR_RETURN(estimate.j0_, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(estimate.scaling_k_lo_, io::ReadI32(source));
  WDE_ASSIGN_OR_RETURN(estimate.alpha_, io::ReadDoubleVector(source));
  WDE_ASSIGN_OR_RETURN(const uint64_t n_details, io::ReadU64(source));
  if (estimate.j0_ < 0 || estimate.j0_ > 26 || n_details > 32) {
    return Status::InvalidArgument("corrupt estimate level structure");
  }
  estimate.details_.reserve(static_cast<size_t>(n_details));
  for (uint64_t i = 0; i < n_details; ++i) {
    DetailLevel level;
    WDE_ASSIGN_OR_RETURN(level.j, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.k_lo, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.kept, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.theta, io::ReadDoubleVector(source));
    if (level.j < 0 || level.j > 26 || level.kept < 0 ||
        static_cast<size_t>(level.kept) > level.theta.size()) {
      return Status::InvalidArgument("corrupt estimate detail level");
    }
    estimate.details_.push_back(std::move(level));
  }
  return estimate;
}

Status WaveletDensityFit::Serialize(io::Sink& sink) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, lo_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(sink, width_));
  return coefficients_.Serialize(sink);
}

Result<WaveletDensityFit> WaveletDensityFit::Deserialize(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(const double lo, io::ReadDouble(source));
  WDE_ASSIGN_OR_RETURN(const double width, io::ReadDouble(source));
  if (!std::isfinite(lo) || !(width > 0.0) || !std::isfinite(width)) {
    return Status::InvalidArgument("corrupt fit domain");
  }
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Deserialize(source);
  if (!coeffs.ok()) return coeffs.status();
  return WaveletDensityFit(std::move(coeffs).value(), lo, width);
}

Result<WaveletDensityFit> WaveletDensityFit::Fit(const wavelet::WaveletBasis& basis,
                                                 std::span<const double> data,
                                                 const FitOptions& options) {
  if (data.size() < 2) return Status::InvalidArgument("need at least 2 observations");
  if (!(options.domain_lo < options.domain_hi)) {
    return Status::InvalidArgument("empty estimation domain");
  }
  const int j0 = options.j0 >= 0
                     ? options.j0
                     : DefaultPrimaryLevel(data.size(),
                                           basis.filter().vanishing_moments());
  const int j_max = options.j_max >= 0 ? options.j_max : DefaultTopLevel(data.size());
  if (j_max < j0) {
    return Status::InvalidArgument(Format("j_max %d below j0 %d", j_max, j0));
  }
  Result<WaveletDensityFit> fit =
      CreateStreaming(basis, j0, j_max, options.domain_lo, options.domain_hi);
  if (!fit.ok()) return fit;
  for (double x : data) {
    if (x < options.domain_lo || x > options.domain_hi) {
      return Status::OutOfRange(
          Format("observation %.6g outside domain [%.6g, %.6g]", x,
                 options.domain_lo, options.domain_hi));
    }
  }
  fit->AddBatch(data);
  return fit;
}

Result<WaveletDensityFit> WaveletDensityFit::CreateStreaming(
    const wavelet::WaveletBasis& basis, int j0, int j_max, double domain_lo,
    double domain_hi) {
  if (!(domain_lo < domain_hi)) {
    return Status::InvalidArgument("empty estimation domain");
  }
  Result<EmpiricalCoefficients> coeffs = EmpiricalCoefficients::Create(basis, j0, j_max);
  if (!coeffs.ok()) return coeffs.status();
  return WaveletDensityFit(std::move(coeffs).value(), domain_lo,
                           domain_hi - domain_lo);
}

void WaveletDensityFit::Add(double x) {
  const double t = (x - lo_) / width_;
  WDE_CHECK(t >= 0.0 && t <= 1.0, "observation outside the fit domain");
  coefficients_.Add(t);
}

Status WaveletDensityFit::Merge(const WaveletDensityFit& other) {
  if (lo_ != other.lo_ || width_ != other.width_) {
    return Status::FailedPrecondition(
        Format("fit domain mismatch: [%.6g, %.6g] vs [%.6g, %.6g]", lo_,
               lo_ + width_, other.lo_, other.lo_ + other.width_));
  }
  return coefficients_.Merge(other.coefficients_);
}

void WaveletDensityFit::AddBatch(std::span<const double> xs) {
  if (xs.empty()) return;
  std::vector<double> ts(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const double t = (xs[i] - lo_) / width_;
    WDE_CHECK(t >= 0.0 && t <= 1.0, "observation outside the fit domain");
    ts[i] = t;
  }
  coefficients_.AddAll(ts);
}

WaveletEstimate WaveletDensityFit::Estimate(const ThresholdSchedule& schedule,
                                            ThresholdKind kind) const {
  WDE_CHECK_GE(count(), 1u, "cannot estimate from an empty fit");
  const double n = static_cast<double>(count());
  WaveletEstimate out(coefficients_.basis());
  out.lo_ = lo_;
  out.width_ = width_;
  out.j0_ = coefficients_.j0();

  const CoefficientLevel& scaling = coefficients_.scaling_level();
  out.scaling_k_lo_ = scaling.k_lo;
  out.alpha_.resize(scaling.s1.size());
  for (size_t i = 0; i < scaling.s1.size(); ++i) out.alpha_[i] = scaling.s1[i] / n;

  const int j_hi = std::min(coefficients_.j_max(), schedule.j_max());
  for (int j = coefficients_.j0(); j <= j_hi; ++j) {
    const CoefficientLevel& level = coefficients_.detail_level(j);
    const double lambda = schedule.LevelLambda(j);
    WaveletEstimate::DetailLevel detail;
    detail.j = j;
    detail.k_lo = level.k_lo;
    detail.theta.resize(level.s1.size());
    for (size_t i = 0; i < level.s1.size(); ++i) {
      const double theta = ApplyThreshold(kind, level.s1[i] / n, lambda);
      detail.theta[i] = theta;
      if (theta != 0.0) ++detail.kept;
    }
    out.details_.push_back(std::move(detail));
  }
  return out;
}

WaveletEstimate WaveletDensityFit::LinearEstimate(int j1) const {
  ThresholdSchedule schedule;
  schedule.j0 = coefficients_.j0();
  const int j_hi = std::min(j1, coefficients_.j_max());
  if (j_hi >= schedule.j0) {
    schedule.lambda.assign(static_cast<size_t>(j_hi - schedule.j0 + 1), 0.0);
  }
  return Estimate(schedule, ThresholdKind::kHard);
}

}  // namespace core
}  // namespace wde
