/// \file selectivity/estimator_registry.hpp
/// The string-tag → factory registry behind both construction surfaces of
/// the selectivity layer. Factories are spec-aware: each maps an
/// `EstimatorSpec` to a fully configured estimator (validating the fields it
/// consumes), so one registration serves live construction
/// (MakeEstimator(spec)), sharded prototype building, AND snapshot restore —
/// a snapshot names its estimator by `snapshot_type_tag()` (== spec.tag) and
/// the registry rebuilds the concrete type from the minimal shell spec
/// before LoadState replaces its configuration and data. Every shipped
/// estimator is pre-registered in Global(); user-defined estimators register
/// their own tag + factory once at startup. The whole-file helpers add and
/// validate the magic/version snapshot header around one estimator envelope
/// (see io/chunk.hpp for the framing and docs/ARCHITECTURE.md "Persistence &
/// wire format" / "Query taxonomy & estimator specs").
#ifndef WDE_SELECTIVITY_ESTIMATOR_REGISTRY_HPP_
#define WDE_SELECTIVITY_ESTIMATOR_REGISTRY_HPP_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "util/result.hpp"

namespace wde {
namespace selectivity {

/// Maps snapshot type tags to spec-aware factories. Thread-safe (lookups and
/// registrations may race across loader threads).
class EstimatorRegistry {
 public:
  /// Builds a fully configured estimator from `spec`, or a non-OK Result
  /// when the fields the tag consumes are invalid. Factories must not abort
  /// on bad specs.
  using Factory =
      std::function<Result<std::unique_ptr<SelectivityEstimator>>(
          const EstimatorSpec&)>;

  /// The process-wide registry, with every shipped estimator pre-registered.
  static EstimatorRegistry& Global();

  /// Registers a factory for `tag`; a duplicate tag is an error. `dims` is
  /// the tag's native dimensionality (what NativeDims reports and ShellFor
  /// stamps into shell specs); factories validate spec.dims against it.
  Status Register(const std::string& tag, Factory factory, int dims = 1);

  bool Contains(const std::string& tag) const;

  /// The native dimensionality the tag was registered with, or 0 for an
  /// unknown tag. Tests and workload builders use it to stamp spec.dims (and
  /// pick per-tag workloads) when iterating Tags().
  int NativeDims(const std::string& tag) const;

  /// All registered tags, sorted (what the round-trip and spec-construction
  /// tests iterate).
  std::vector<std::string> Tags() const;

  /// Builds the estimator `spec.tag` names from `spec`. NotFound for an
  /// unregistered tag.
  Result<std::unique_ptr<SelectivityEstimator>> Make(
      const EstimatorSpec& spec) const;

  /// A shell instance for `tag` — the factory applied to
  /// EstimatorSpec::ShellFor(tag) — or nullptr when the tag is unknown.
  /// LoadState then replaces the shell's configuration and data with a
  /// snapshot's.
  std::unique_ptr<SelectivityEstimator> MakeShell(const std::string& tag) const;

 private:
  EstimatorRegistry() = default;

  struct Entry {
    Factory factory;
    int dims = 1;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> factories_;
};

/// Writes one estimator envelope (no snapshot header) — what nested
/// serialization uses; equivalent to estimator.SaveState(sink).
Status SaveEstimatorEnvelope(const SelectivityEstimator& estimator,
                             io::Sink& sink);

/// Restores one estimator envelope through the registry: reads the type-tag
/// chunk, builds the registered shell, loads the state chunk into it.
Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorEnvelope(
    io::Source& source);

/// Whole snapshot = magic/version header + one estimator envelope.
Status SaveEstimatorSnapshot(const SelectivityEstimator& estimator,
                             io::Sink& sink);

/// Restores a whole snapshot; trailing bytes after the envelope are an error.
Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorSnapshot(
    io::Source& source);

/// File convenience wrappers over Save/LoadEstimatorSnapshot.
Status SaveEstimatorSnapshotFile(const SelectivityEstimator& estimator,
                                 const std::string& path);
Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorSnapshotFile(
    const std::string& path);

/// Identical to SaveEstimatorSnapshot. The name survives from a retired
/// second state encoding only because the end-to-end benchmark
/// (e2ebench/e2e_bench.cpp) still calls it; new code calls
/// SaveEstimatorSnapshot.
Status SaveEstimatorSnapshotFast(const SelectivityEstimator& estimator,
                                 io::Sink& sink);

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_ESTIMATOR_REGISTRY_HPP_
