#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>

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
    const wavelet::ScaledLevelEvaluator& eval = levels_[0].eval;
    const double* alpha = alpha_.data();
    const int n_alpha = static_cast<int>(alpha_.size());
    const int k_lo = scaling_k_lo_;
    for (size_t i = 0; i < n; ++i) {
      const double t = ts[i];
      if (t < 0.0 || t > 1.0) continue;
      eval.AccumulateWeighted(t, alpha, k_lo, n_alpha, &out[i]);
    }
  }
  for (size_t l = 0; l < details_.size(); ++l) {
    const DetailLevel& level = details_[l];
    if (level.kept == 0) continue;
    const wavelet::ScaledLevelEvaluator& eval = levels_[l + 1].eval;
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

void WaveletEstimate::IndexLevels() {
  levels_.clear();
  levels_.reserve(details_.size() + 1);
  const auto add = [this](wavelet::ScaledLevelEvaluator eval,
                          const std::vector<double>& coeffs, int k_lo, bool kept) {
    const double factor = std::exp2(-0.5 * static_cast<double>(eval.j()));
    std::vector<double> prefix;
    if (kept) {
      // Each term is the per-translate integral of a support wholly inside
      // the query: c · ((A_full − 0) · 2^{-j/2}).
      const double full = eval.antiderivative_full() * factor;
      prefix.resize(coeffs.size() + 1);
      prefix[0] = 0.0;
      for (size_t i = 0; i < coeffs.size(); ++i) {
        prefix[i + 1] = prefix[i] + coeffs[i] * full;
      }
    }
    levels_.push_back(LevelIndex{std::move(eval), k_lo, factor, std::move(prefix)});
  };
  add(basis_.PhiLevel(j0_), alpha_, scaling_k_lo_, true);
  for (const DetailLevel& level : details_) {
    add(basis_.PsiLevel(level.j), level.theta, level.k_lo, level.kept != 0);
  }
}

double WaveletEstimate::IntegrateRange(double a, double b) const {
  double out = 0.0;
  IntegrateRangeMany(std::span<const double>(&a, 1), std::span<const double>(&b, 1),
                     std::span<double>(&out, 1));
  return out;
}

void WaveletEstimate::IntegrateRangeMany(std::span<const double> a,
                                         std::span<const double> b,
                                         std::span<double> out) const {
  WDE_CHECK(a.size() == b.size() && a.size() == out.size(),
            "IntegrateRangeMany spans must match");
  const int support = basis_.support_length();
  for (size_t i = 0; i < a.size(); ++i) {
    double x = a[i];
    double y = b[i];
    if (y < x) std::swap(x, y);
    const double ta = std::clamp((x - lo_) / width_, 0.0, 1.0);
    const double tb = std::clamp((y - lo_) / width_, 0.0, 1.0);
    double acc = 0.0;
    if (tb > ta) {
      for (size_t l = 0; l < levels_.size(); ++l) {
        const LevelIndex& level = levels_[l];
        if (level.prefix.empty()) continue;  // a fully thresholded level
        const wavelet::ScaledLevelEvaluator& eval = level.eval;
        // levels_[0] is the scaling level, levels_[l] the detail level l − 1.
        const double* coeffs = l == 0 ? alpha_.data() : details_[l - 1].theta.data();
        const int k_lo = level.k_lo;
        const int k_hi = k_lo + static_cast<int>(level.prefix.size() - 1) - 1;
        const double scale = eval.scale();
        // Translates whose support [k, k + support] meets [ta, tb]; those
        // wholly inside it form the interior, answered from the prefix sums.
        const int k_first =
            std::max(k_lo, static_cast<int>(std::ceil(scale * ta)) - support);
        const int k_last = std::min(k_hi, static_cast<int>(std::floor(scale * tb)));
        const int in_lo = std::max(k_first, static_cast<int>(std::ceil(scale * ta)));
        const double interior_end = scale * tb - eval.support_end();
        const int in_hi = std::min(k_last, static_cast<int>(std::floor(interior_end)));
        const auto edge = [&](int from, int to) {
          for (int k = from; k <= to; ++k) {
            const double coeff = coeffs[k - k_lo];
            if (coeff == 0.0) continue;
            const double anti_hi = eval.AntiderivativeAt(k, tb);
            const double anti_lo = eval.AntiderivativeAt(k, ta);
            acc += coeff * ((anti_hi - anti_lo) * level.factor);
          }
        };
        if (in_lo > in_hi) {
          edge(k_first, k_last);
          continue;
        }
        const double* prefix = level.prefix.data();
        edge(k_first, in_lo - 1);
        acc += prefix[in_hi + 1 - k_lo] - prefix[in_lo - k_lo];
        edge(in_hi + 1, k_last);
      }
    }
    out[i] = acc;
  }
}

double WaveletEstimate::TotalMass() const {
  return IntegrateRange(domain_lo(), domain_hi());
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
  // A non-finite coefficient would poison every prefix sum to its right, and
  // a level must span its basis window: the answer paths index coefficients
  // by k − k_lo over it.
  const auto all_finite = [](const std::vector<double>& values) {
    return std::all_of(values.begin(), values.end(),
                       [](double v) { return std::isfinite(v); });
  };
  const auto spans_window = [&basis](int j, int k_lo, size_t size) {
    const wavelet::TranslationWindow window = basis.LevelWindow(j);
    return k_lo == window.lo && size == static_cast<size_t>(window.size());
  };
  if (!all_finite(estimate.alpha_) ||
      !spans_window(estimate.j0_, estimate.scaling_k_lo_, estimate.alpha_.size())) {
    return Status::InvalidArgument("corrupt estimate scaling level");
  }
  estimate.details_.reserve(static_cast<size_t>(n_details));
  for (uint64_t i = 0; i < n_details; ++i) {
    DetailLevel level;
    WDE_ASSIGN_OR_RETURN(level.j, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.k_lo, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.kept, io::ReadI32(source));
    WDE_ASSIGN_OR_RETURN(level.theta, io::ReadDoubleVector(source));
    const auto zeros = std::count(level.theta.begin(), level.theta.end(), 0.0);
    if (level.j < 0 || level.j > 26 || !all_finite(level.theta) ||
        !spans_window(level.j, level.k_lo, level.theta.size()) ||
        static_cast<long>(level.theta.size()) - zeros != level.kept) {
      return Status::InvalidArgument("corrupt estimate detail level");
    }
    estimate.details_.push_back(std::move(level));
  }
  estimate.IndexLevels();
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
  std::vector<double> ts(xs.begin(), xs.end());
  AddBatchInPlace(ts);
}

void WaveletDensityFit::AddBatchInPlace(std::span<double> xs) {
  for (double& x : xs) {
    const double t = (x - lo_) / width_;
    WDE_CHECK(t >= 0.0 && t <= 1.0, "observation outside the fit domain");
    x = t;
  }
  coefficients_.AddAll(xs);
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
  out.IndexLevels();
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
