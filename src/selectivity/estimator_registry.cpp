#include "selectivity/estimator_registry.hpp"

#include <cmath>
#include <utility>

#include "core/thresholding.hpp"
#include "io/chunk.hpp"
#include "selectivity/grid2d_selectivity.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde2d_selectivity.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "wavelet/filter.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace selectivity {

namespace {

/// Every factory pins the spec to its tag's native dimensionality: a spec
/// cannot silently build an estimator that ignores half its coordinates.
Status CheckDims(const EstimatorSpec& spec, int native_dims) {
  if (spec.dims != native_dims) {
    return Status::InvalidArgument(
        "spec '" + spec.tag + "': dims must be " + std::to_string(native_dims));
  }
  return Status::OK();
}

/// Validation shared by the tags that declare a domain.
Status CheckDomain(const EstimatorSpec& spec) {
  if (!std::isfinite(spec.domain_lo) || !std::isfinite(spec.domain_hi) ||
      !(spec.domain_lo < spec.domain_hi)) {
    return Status::InvalidArgument("spec '" + spec.tag +
                                   "': domain_lo must be < domain_hi");
  }
  return Status::OK();
}

/// Axis-1 counterpart for the 2-D tags.
Status CheckDomain2(const EstimatorSpec& spec) {
  if (!std::isfinite(spec.domain2_lo) || !std::isfinite(spec.domain2_hi) ||
      !(spec.domain2_lo < spec.domain2_hi)) {
    return Status::InvalidArgument("spec '" + spec.tag +
                                   "': domain2_lo must be < domain2_hi");
  }
  return Status::OK();
}

Result<std::unique_ptr<SelectivityEstimator>> MakeEquiWidth(
    const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 1));
  WDE_RETURN_IF_ERROR(CheckDomain(spec));
  if (spec.buckets <= 0) {
    return Status::InvalidArgument("spec 'equi-width': buckets must be positive");
  }
  return std::unique_ptr<SelectivityEstimator>(std::make_unique<EquiWidthHistogram>(
      spec.domain_lo, spec.domain_hi, spec.buckets));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeEquiDepth(
    const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 1));
  WDE_RETURN_IF_ERROR(CheckDomain(spec));
  if (spec.buckets <= 0) {
    return Status::InvalidArgument("spec 'equi-depth': buckets must be positive");
  }
  return std::unique_ptr<SelectivityEstimator>(std::make_unique<EquiDepthHistogram>(
      spec.domain_lo, spec.domain_hi, spec.buckets, spec.refit_mode));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeReservoir(
    const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 1));
  if (spec.capacity == 0) {
    return Status::InvalidArgument("spec 'reservoir': capacity must be positive");
  }
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<ReservoirSampleSelectivity>(spec.capacity, spec.seed));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeKde(const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 1));
  WDE_RETURN_IF_ERROR(CheckDomain(spec));
  if (spec.refit_interval == 0) {
    return Status::InvalidArgument("spec 'kde-rot': refit_interval must be positive");
  }
  KdeSelectivity::Options options;
  options.domain_lo = spec.domain_lo;
  options.domain_hi = spec.domain_hi;
  options.refit_interval = spec.refit_interval;
  options.refit_mode = spec.refit_mode;
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<KdeSelectivity>(options));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeSynopsis(
    const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 1));
  WaveletSynopsisSelectivity::Options options;
  options.domain_lo = spec.domain_lo;
  options.domain_hi = spec.domain_hi;
  options.grid_log2 = spec.grid_log2;
  options.budget = spec.budget;
  options.rebuild_interval = spec.refit_interval;
  Result<WaveletSynopsisSelectivity> synopsis =
      WaveletSynopsisSelectivity::Create(options);
  if (!synopsis.ok()) return synopsis.status();
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<WaveletSynopsisSelectivity>(std::move(synopsis).value()));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeWaveletSketch(
    const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 1));
  WDE_RETURN_IF_ERROR(CheckDomain(spec));
  Result<wavelet::WaveletFilter> filter = wavelet::WaveletFilter::FromName(spec.filter);
  if (!filter.ok()) return filter.status();
  Result<wavelet::WaveletBasis> basis =
      wavelet::WaveletBasis::Create(*filter, spec.table_levels);
  if (!basis.ok()) return basis.status();
  StreamingWaveletSelectivity::Options options;
  options.domain_lo = spec.domain_lo;
  options.domain_hi = spec.domain_hi;
  options.j0 = spec.j0;
  options.j_max = spec.j_max;
  options.kind = spec.soft_threshold ? core::ThresholdKind::kSoft
                                     : core::ThresholdKind::kHard;
  options.refit_interval = spec.refit_interval;
  options.refit_mode = spec.refit_mode;
  Result<StreamingWaveletSelectivity> sketch =
      StreamingWaveletSelectivity::Create(*basis, options);
  if (!sketch.ok()) return sketch.status();
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<StreamingWaveletSelectivity>(std::move(sketch).value()));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeKde2d(
    const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 2));
  WDE_RETURN_IF_ERROR(CheckDomain(spec));
  WDE_RETURN_IF_ERROR(CheckDomain2(spec));
  if (spec.refit_interval == 0) {
    return Status::InvalidArgument(
        "spec 'kde2d-prod': refit_interval must be positive");
  }
  if (!std::isfinite(spec.kde2d_alpha) || spec.kde2d_alpha < 0.0 ||
      spec.kde2d_alpha > 1.0) {
    return Status::InvalidArgument(
        "spec 'kde2d-prod': kde2d_alpha must be in [0, 1]");
  }
  Kde2dSelectivity::Options options;
  options.domain_lo0 = spec.domain_lo;
  options.domain_hi0 = spec.domain_hi;
  options.domain_lo1 = spec.domain2_lo;
  options.domain_hi1 = spec.domain2_hi;
  options.refit_interval = spec.refit_interval;
  options.alpha = spec.kde2d_alpha;
  options.cv_bandwidths = spec.kde2d_cv;
  options.refit_mode = spec.refit_mode;
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<Kde2dSelectivity>(options));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeGrid2d(
    const EstimatorSpec& spec) {
  WDE_RETURN_IF_ERROR(CheckDims(spec, 2));
  WDE_RETURN_IF_ERROR(CheckDomain(spec));
  WDE_RETURN_IF_ERROR(CheckDomain2(spec));
  if (spec.grid_log2 < 1 || spec.grid_log2 > 10) {
    return Status::InvalidArgument(
        "spec 'grid2d': grid_log2 must be in [1, 10] (the grid is "
        "2^grid_log2 x 2^grid_log2 cells)");
  }
  return std::unique_ptr<SelectivityEstimator>(std::make_unique<Grid2dHistogram>(
      spec.domain_lo, spec.domain_hi, spec.domain2_lo, spec.domain2_hi,
      spec.grid_log2));
}

Result<std::unique_ptr<SelectivityEstimator>> MakeSharded(
    const EstimatorSpec& spec) {
  // No CheckDims here: the wrapper's dimensionality is the prototype's, and
  // the inner factory (which sees the same spec.dims) validates it.
  if (spec.sharded_inner_tag == "sharded") {
    return Status::InvalidArgument(
        "spec 'sharded': nesting sharded inside sharded is not supported");
  }
  EstimatorSpec inner = spec;
  inner.tag = spec.sharded_inner_tag;
  Result<std::unique_ptr<SelectivityEstimator>> prototype =
      EstimatorRegistry::Global().Make(inner);
  if (!prototype.ok()) return prototype.status();
  ShardedSelectivityEstimator::Options options;
  options.shards = spec.shards;
  options.block_size = spec.block_size;
  options.merge_refresh_interval = spec.merge_refresh_interval;
  options.pool = spec.pool;
  options.refit_mode = spec.refit_mode;
  Result<ShardedSelectivityEstimator> sharded =
      ShardedSelectivityEstimator::Create(**prototype, options);
  if (!sharded.ok()) return sharded.status();
  return std::unique_ptr<SelectivityEstimator>(
      std::make_unique<ShardedSelectivityEstimator>(std::move(sharded).value()));
}

void RegisterBuiltins(EstimatorRegistry& registry) {
  const auto register_or_die = [&registry](const char* tag,
                                           EstimatorRegistry::Factory factory,
                                           int dims = 1) {
    WDE_CHECK_OK(registry.Register(tag, std::move(factory), dims));
  };
  register_or_die("equi-width", MakeEquiWidth);
  register_or_die("equi-depth", MakeEquiDepth);
  register_or_die("reservoir", MakeReservoir);
  register_or_die("kde-rot", MakeKde);
  register_or_die("haar-synopsis", MakeSynopsis);
  register_or_die("wavelet-cv", MakeWaveletSketch);
  register_or_die("kde2d-prod", MakeKde2d, 2);
  register_or_die("grid2d", MakeGrid2d, 2);
  // "sharded" is registered 1-D (its shell wraps a 1-D prototype); wrapping
  // a 2-D inner tag works by setting spec.dims = 2, which the inner factory
  // validates.
  register_or_die("sharded", MakeSharded);
}

}  // namespace

EstimatorSpec EstimatorSpec::ShellFor(const std::string& tag) {
  // Minimal along every axis at once, so one shell spec serves every tag:
  // LoadState replaces configuration and data, the shell only has to be a
  // cheaply constructed instance of the right concrete type.
  EstimatorSpec shell;
  shell.tag = tag;
  shell.dims = EstimatorRegistry::Global().NativeDims(tag);
  if (shell.dims == 0) shell.dims = 1;  // unknown tag: Make will NotFound it
  shell.buckets = 1;
  shell.grid_log2 = 2;
  shell.budget = 1;
  shell.filter = "haar";
  shell.table_levels = 4;
  shell.j0 = 0;
  shell.j_max = 0;
  shell.capacity = 1;
  shell.sharded_inner_tag = "equi-width";
  shell.shards = 1;
  return shell;
}

Result<std::unique_ptr<SelectivityEstimator>> MakeEstimator(
    const EstimatorSpec& spec) {
  return EstimatorRegistry::Global().Make(spec);
}

EstimatorRegistry& EstimatorRegistry::Global() {
  static EstimatorRegistry* registry = [] {
    auto* r = new EstimatorRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

Status EstimatorRegistry::Register(const std::string& tag, Factory factory,
                                   int dims) {
  if (tag.empty()) return Status::InvalidArgument("empty snapshot tag");
  if (factory == nullptr) {
    return Status::InvalidArgument("null factory for snapshot tag '" + tag + "'");
  }
  if (dims < 1) {
    return Status::InvalidArgument("snapshot tag '" + tag +
                                   "' registered with dims < 1");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      factories_.emplace(tag, Entry{std::move(factory), dims});
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("snapshot tag '" + tag +
                                   "' is already registered");
  }
  return Status::OK();
}

bool EstimatorRegistry::Contains(const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(tag) != 0;
}

int EstimatorRegistry::NativeDims(const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = factories_.find(tag);
  return it == factories_.end() ? 0 : it->second.dims;
}

std::vector<std::string> EstimatorRegistry::Tags() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> tags;
  tags.reserve(factories_.size());
  for (const auto& [tag, entry] : factories_) tags.push_back(tag);
  return tags;  // std::map iterates sorted
}

Result<std::unique_ptr<SelectivityEstimator>> EstimatorRegistry::Make(
    const EstimatorSpec& spec) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(spec.tag);
    if (it == factories_.end()) {
      return Status::NotFound("no estimator registered for tag '" + spec.tag +
                              "'");
    }
    factory = it->second.factory;
  }
  return factory(spec);
}

std::unique_ptr<SelectivityEstimator> EstimatorRegistry::MakeShell(
    const std::string& tag) const {
  Result<std::unique_ptr<SelectivityEstimator>> shell =
      Make(EstimatorSpec::ShellFor(tag));
  if (!shell.ok()) return nullptr;
  return std::move(shell).value();
}

Status SaveEstimatorEnvelope(const SelectivityEstimator& estimator,
                             io::Sink& sink) {
  return estimator.SaveState(sink);
}

Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorEnvelope(
    io::Source& source) {
  WDE_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> tag_bytes,
      io::ReadChunkExpecting(source, internal::kChunkEstimatorType));
  const std::string tag(tag_bytes.begin(), tag_bytes.end());
  std::unique_ptr<SelectivityEstimator> shell =
      EstimatorRegistry::Global().MakeShell(tag);
  if (shell == nullptr) {
    return Status::NotFound("no estimator registered for snapshot tag '" + tag +
                            "'");
  }
  WDE_RETURN_IF_ERROR(shell->LoadEnvelopeState(source));
  return shell;
}

Status SaveEstimatorSnapshot(const SelectivityEstimator& estimator,
                             io::Sink& sink) {
  WDE_RETURN_IF_ERROR(io::WriteSnapshotHeader(sink));
  return estimator.SaveState(sink);
}

Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorSnapshot(
    io::Source& source) {
  WDE_RETURN_IF_ERROR(io::ReadSnapshotHeader(source).status());
  Result<std::unique_ptr<SelectivityEstimator>> estimator =
      LoadEstimatorEnvelope(source);
  if (!estimator.ok()) return estimator.status();
  if (source.remaining() != 0) {
    return Status::InvalidArgument("snapshot has trailing bytes");
  }
  return estimator;
}

Status SaveEstimatorSnapshotFile(const SelectivityEstimator& estimator,
                                 const std::string& path) {
  return io::WriteFileAtomically(path, [&estimator](io::Sink& sink) {
    return SaveEstimatorSnapshot(estimator, sink);
  });
}

Status SaveEstimatorSnapshotFast(const SelectivityEstimator& estimator,
                                 io::Sink& sink) {
  return SaveEstimatorSnapshot(estimator, sink);
}

Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorSnapshotFile(
    const std::string& path) {
  Result<io::FileSource> source = io::FileSource::Open(path);
  if (!source.ok()) return source.status();
  return LoadEstimatorSnapshot(*source);
}

Status SelectivityEstimator::MergeFromSnapshot(io::Source& source) {
  Result<std::unique_ptr<SelectivityEstimator>> loaded =
      LoadEstimatorSnapshot(source);
  if (!loaded.ok()) return loaded.status();
  return MergeFrom(**loaded);
}

}  // namespace selectivity
}  // namespace wde
