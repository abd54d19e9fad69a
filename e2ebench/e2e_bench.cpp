// End-to-end serving benchmark of the selectivity service.
//
// One process runs one workload through the production path: a
// serving::EstimatorService over a writer built by selectivity::MakeEstimator,
// ingesting on an explicitly sized parallel::ThreadPool, fed by one of the
// paper's weakly dependent processes (harness::MakeCase with the
// sine/uniform mixture marginal), and read by optimizer-style typed-query
// batches. It checks every answer and prints the end-to-end metrics; the last
// line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Times measured in the window are reported at a reference host speed: each
// is scaled by a fixed probe computation timed next to it on the same CPU
// (host_probe.hpp); the traced run reports them as measured too.
//
// With --trace=1 the process instead reports per-layer metrics: it runs the
// same workload untraced and traced, each for half of --seconds (the
// difference is the tracing overhead), then replays the same stream and publish positions directly
// against the selectivity layer, where the service hides extract, refit and
// insert, and times each public call. Spans are written to
// .bench_run/trace-<workload>-<seed>.jsonl.
//
// Usage: e2e_bench --workload=<wcv-read|kde-read> --seed=N --seconds=S
//                  --trace=<0|1> [--inject-wrong-answer]
//
// --inject-wrong-answer corrupts the recorded answer of the first sampled
// batch before its replay check, to show that a wrong answer fails the run
// (non-zero exit); a run in which no batch was sampled fails too.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "harness/cases.hpp"
#include "io/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "processes/noncausal_ma.hpp"
#include "processes/target_density.hpp"
#include "processes/transformed_process.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "serving/estimator_service.hpp"
#include "stats/rng.hpp"
#include "host_probe.hpp"
#include "trace.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wde;
using selectivity::Query;
using selectivity::QueryKind;
using Clock = std::chrono::steady_clock;
using e2e::DurationsUs;
using e2e::ScopedSpan;
using e2e::SelfMsByLayer;
using e2e::SpanLog;
using e2e::WriteSpans;

// ------------------------------------------------------------------ shape

constexpr double kDomainLo = 0.0;  // support of the sine/uniform marginal
constexpr double kDomainHi = 1.0;
constexpr size_t kPrefill = 1000000;
constexpr size_t kBlock = 4096;  // values per writer admission
constexpr size_t kSetupRepeats = 5;
/// restore_s is the best of the restores made over at least this span (and
/// at least kMinRestores), each on the next CPU in turn: a restore is a
/// single ~30-200 ms call and the host's noise on it is one-sided (the
/// repo's BestOfSeconds rationale). Repeats on one CPU tend to stay in one
/// of two modes (~30 or ~48 ms on wcv-read) for the whole process; moving to
/// another CPU re-draws the mode.
constexpr double kRestoreSpanS = 2.0;
constexpr size_t kMinRestores = 3;
/// Readers with fresh queries cycle a pool of pre-generated batches; each
/// later pass scales the parameters by (1 - pass * 1e-12), so no query
/// repeats and the result cache is bypassed by construction.
constexpr size_t kReaderPoolBatches = 4096;
/// Every time measured in the window is scaled by HostProbe::Scale() taken
/// on its thread just before it (see host_probe.hpp). Readers probe at most
/// this often (about 2% of a wcv-read reader's time), the writer before
/// every admission.
constexpr auto kReaderProbeInterval = std::chrono::milliseconds(2);
/// Batches replayed through their pinned view after quiesce: reader 0 samples
/// its first batch and then the first batch at or after every
/// kSampleEpochStride-th epoch. One reader, fixed epochs: the number of
/// views kept alive (and so peak memory) does not depend on scheduling.
constexpr size_t kMaxSamples = 5;
constexpr uint64_t kSampleEpochStride = 8;
constexpr size_t kQErrorProbes = 4096;
constexpr double kQErrorFloor = 1e-4;
constexpr size_t kRestoreProbes = 256;
constexpr size_t kKindProbes = 256;
constexpr size_t kQuantileProbes = 64;
constexpr size_t kSpeedupBlocks = 64;
constexpr size_t kSmallN = 100000;
/// Shards accumulate sums only; every publish refits the merged view.
constexpr size_t kNoShardRefit = size_t{1} << 40;

/// One read batch is stratified by kind (6 range, 2 point, 2 less, 2 greater,
/// 2 cdf, 2 quantile) so its cost is unimodal: a random mix would put 0, 1 or
/// 2 of the ~100x dearer quantiles into a batch.
constexpr QueryKind kBatchKinds[] = {
    QueryKind::kRange,    QueryKind::kRange,   QueryKind::kPoint,
    QueryKind::kLess,     QueryKind::kRange,   QueryKind::kGreater,
    QueryKind::kCdf,      QueryKind::kQuantile, QueryKind::kRange,
    QueryKind::kRange,    QueryKind::kPoint,   QueryKind::kLess,
    QueryKind::kRange,    QueryKind::kGreater, QueryKind::kCdf,
    QueryKind::kQuantile};
constexpr size_t kBatch = std::size(kBatchKinds);

struct Workload {
  const char* name;
  harness::DependenceCase data_case;
  bool wavelet;        // sharded wavelet-cv; otherwise unsharded kde-rot
  int pool_workers;    // explicit ingest pool (the writer thread also works)
  int readers;
  /// The open-loop writer's admission rate; the window is the
  /// seconds * writer_vps values it admits, so the final state, the epochs
  /// and the q-error depend only on the seed.
  double writer_vps;
  /// Publish on the insert pacer only, every publish_blocks admissions. An
  /// odd count puts the median block of a publish cycle in the middle of the
  /// cycle, so visible_lag_p50_ms never sits between two lag modes.
  size_t publish_blocks;
  /// Checkpoint at fixed stream positions: after admission b when
  /// b % checkpoint_blocks == checkpoint_blocks / 2.
  size_t checkpoint_blocks;
};

/// kde-read admits at a fifth of wcv-read's rate: a kde-rot publish costs
/// 100-200 ms at n = 1e6-1.4e6 (a full sort, see README.md), and a block
/// period (205 ms) longer than a publish keeps non-publishing admissions off
/// the publish queue, so write_p50_us measures one population. Its third
/// reader gives read_p99_us more than ten batches beyond it in a 20 s run.
constexpr Workload kWorkloads[] = {
    {"wcv-read", harness::DependenceCase::kLogisticMap, true, 1, 2, 1e5, 3, 3},
    {"kde-read", harness::DependenceCase::kNoncausalMa, false, 0, 3, 2e4, 3, 3},
};

selectivity::EstimatorSpec SpecFor(const Workload& w, parallel::ThreadPool* pool) {
  selectivity::EstimatorSpec spec;
  spec.domain_lo = kDomainLo;
  spec.domain_hi = kDomainHi;
  if (w.wavelet) {
    spec.tag = "sharded";
    spec.sharded_inner_tag = "wavelet-cv";
    spec.filter = "sym8";
    spec.j0 = 2;
    spec.j_max = 11;
    spec.soft_threshold = true;
    spec.refit_interval = kNoShardRefit;
    spec.shards = 4;
    // A 4096-value admission spans all four shards, so ingest fans out.
    spec.block_size = 1024;
    spec.pool = pool;
  } else {
    spec.tag = "kde-rot";
  }
  return spec;
}

serving::ServiceOptions ServiceOptionsFor(const Workload& w) {
  serving::ServiceOptions options;
  options.publish_interval = w.publish_blocks * kBlock;
  options.max_staleness_ms = 0;
  return options;
}

// ------------------------------------------------------------------ helpers

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One "Key:   <n> ..." field of /proc/self/status (kB fields in bytes).
double ProcStatus(const char* key, double scale) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double value = 0.0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtod(line + key_len + 1, nullptr) * scale;
      break;
    }
  }
  std::fclose(f);
  return value;
}

double RssMb(const char* key) { return ProcStatus(key, 1.0 / 1024.0); }

/// Restarts VmHWM from the current RSS (Linux clear_refs), so one phase's
/// peak is measured on its own.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// The CPUs this process may run on.
std::vector<int> AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread (and threads it creates later) to `cpus`.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  WDE_CHECK(sched_setaffinity(0, sizeof(set), &set) == 0, "sched_setaffinity failed");
}

/// Which CPU each busy thread of a workload owns: the writer the first, the
/// pool workers the next pool_workers, each reader one of the rest. One
/// thread per CPU takes the scheduler's placement (a pool worker time-sliced
/// against a reader on one CPU) out of the measurement.
struct CpuPlan {
  std::vector<int> all;
  int writer = 0;
  std::vector<int> pool;
  std::vector<int> readers;
};

/// Keeps the pool workers' CPUs from halting between admissions: one
/// SCHED_IDLE thread spins on each, and the guest runs it only when nothing
/// else wants that CPU. A pool worker sleeps between admissions, and waking
/// it on a halted vCPU takes the host a delay that changes with the host's
/// load: without this, write_p50_us on wcv-read spread by 0.34 over ten runs
/// while the reads spread by 0.06.
class AwakeCpus {
 public:
  explicit AwakeCpus(const std::vector<int>& cpus) {
    for (int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        PinTo({cpu});
        sched_param param{};
        WDE_CHECK(sched_setscheduler(0, SCHED_IDLE, &param) == 0,
                  "sched_setscheduler(SCHED_IDLE) failed");
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~AwakeCpus() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  AwakeCpus(const AwakeCpus&) = delete;
  AwakeCpus& operator=(const AwakeCpus&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Sleeps until shortly before `due`, then spins: timer and vCPU wake-up
/// latency (tens of µs to ms) would otherwise dominate latencies timed from
/// the due time. A thread whose due times are less than 2 ms apart never
/// sleeps; it owns its CPU.
void WaitUntil(Clock::time_point due) {
  const auto spin = std::chrono::milliseconds(2);
  if (due - Clock::now() > spin) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
  }
}

bool AnswerValid(const Query& query, double value) {
  if (!std::isfinite(value)) return false;
  if (query.kind == QueryKind::kQuantile) {
    return value >= kDomainLo && value <= kDomainHi;
  }
  return value >= 0.0 && value <= 1.0;
}

struct Checks {
  size_t attempted = 0;
  size_t failed = 0;

  void Record(bool ok, const char* what) { Add(1, ok ? 0 : 1, what); }

  void Add(size_t checked, size_t failures, const char* what) {
    attempted += checked;
    failed += failures;
    if (failures != 0) std::fprintf(stderr, "CHECK FAILED: %zu x %s\n", failures, what);
  }
};

// --------------------------------------------------------------- workload data

/// The stream: kPrefill values ingested during set-up, then `blocks` blocks
/// of kBlock values admitted during the measured window, all one continuous
/// sample path of the workload's process. No block repeats: a stream that
/// replayed its blocks would look less noisy to the cross-validated
/// threshold, which then keeps more coefficients, and a 60 s run of wcv-read
/// that cycled 512 blocks read 4x slower at its end than at its start.
struct Data {
  std::vector<double> prefill;
  std::vector<double> stream;
  size_t blocks = 0;

  std::span<const double> Block(size_t b) const {
    return std::span<const double>(stream).subspan(b * kBlock, kBlock);
  }
};

/// Case 3's fixed-point simulation runs N sweeps over the whole path, and
/// MakeCase uses the paper's N = n: O(n^2), hours at n = 1e6. The sweep
/// contracts errors by 4/5, so N = kMaSweeps leaves (4/5)^256 < 1e-24 of
/// the start value, below double rounding: the same process, in O(n).
constexpr double kMaSweeps = 256;

Data MakeData(const Workload& w, uint64_t seed, double seconds) {
  Data data;
  data.blocks = static_cast<size_t>(
      std::ceil(seconds * w.writer_vps / static_cast<double>(kBlock)));
  const size_t n = kPrefill + data.blocks * kBlock;
  auto target = std::make_shared<processes::SineUniformMixtureDensity>();
  const processes::TransformedProcess process =
      w.data_case == harness::DependenceCase::kNoncausalMa
          ? processes::TransformedProcess(
                std::make_shared<processes::NoncausalMaProcess>(kMaSweeps /
                                                               static_cast<double>(n)),
                target)
          : harness::MakeCase(w.data_case, target);
  stats::Rng rng(seed);
  std::vector<double> path = process.Sample(n, rng);
  data.prefill.assign(path.begin(), path.begin() + kPrefill);
  data.stream.assign(path.begin() + kPrefill, path.end());
  return data;
}

/// Query centres in equal thirds from three generators (the feedback-KDE
/// query workload family): an ingested value, a uniform point of the domain,
/// and a point near one of a few Gaussian cluster centres (visited
/// round-robin).
class CenterGenerator {
 public:
  CenterGenerator(stats::Rng& rng, const Data& data) : rng_(rng), data_(data) {
    for (double& c : clusters_) c = rng_.Uniform(kDomainLo, kDomainHi);
  }

  double Next() {
    double x = 0.0;
    switch (turn_++ % 3) {
      case 0: {
        const size_t n = data_.prefill.size() + data_.stream.size();
        const size_t i = static_cast<size_t>(rng_.UniformInt(n));
        x = i < data_.prefill.size() ? data_.prefill[i]
                                     : data_.stream[i - data_.prefill.size()];
        break;
      }
      case 1:
        x = rng_.Uniform(kDomainLo, kDomainHi);
        break;
      default:
        x = rng_.Gaussian(clusters_[next_cluster_++ % kClusters], kClusterSigma);
        break;
    }
    return std::clamp(x, kDomainLo, kDomainHi);
  }

  Query Range() {
    const double c = Next();
    const double half = rng_.Uniform(0.002, 0.05);
    return Query::Range(std::max(kDomainLo, c - half), std::min(kDomainHi, c + half));
  }

  Query Make(QueryKind kind) {
    switch (kind) {
      case QueryKind::kRange:
        return Range();
      case QueryKind::kPoint:
        return Query::Point(Next());
      case QueryKind::kLess:
        return Query::Less(Next());
      case QueryKind::kGreater:
        return Query::Greater(Next());
      case QueryKind::kCdf:
        return Query::Cdf(Next());
      default:
        return Query::Quantile(rng_.UniformDouble());
    }
  }

  std::vector<Query> Batch() {
    std::vector<Query> batch;
    batch.reserve(kBatch);
    for (QueryKind kind : kBatchKinds) batch.push_back(Make(kind));
    return batch;
  }

 private:
  static constexpr size_t kClusters = 8;
  static constexpr double kClusterSigma = 0.02;
  stats::Rng& rng_;
  const Data& data_;
  double clusters_[kClusters] = {};
  size_t turn_ = 0;
  size_t next_cluster_ = 0;
};

std::vector<std::vector<Query>> MakeBatches(stats::Rng rng, const Data& data,
                                            size_t count) {
  CenterGenerator gen(rng, data);
  std::vector<std::vector<Query>> batches(count);
  for (auto& batch : batches) batch = gen.Batch();
  return batches;
}

std::vector<Query> MakeKindProbes(stats::Rng rng, const Data& data, QueryKind kind,
                                  size_t count) {
  CenterGenerator gen(rng, data);
  std::vector<Query> probes(count);
  for (Query& q : probes) q = gen.Make(kind);
  return probes;
}

/// The pass-th reuse of a pooled batch, made distinct from every earlier one.
void Perturb(std::vector<Query>& batch, size_t pass) {
  if (pass == 0) return;
  const double scale = 1.0 - static_cast<double>(pass) * 1e-12;
  for (Query& q : batch) {
    q.a *= scale;
    q.b *= scale;
  }
}

// ---------------------------------------------------------------- live run

std::unique_ptr<serving::EstimatorService> MakeService(
    const selectivity::EstimatorSpec& spec, const serving::ServiceOptions& options) {
  Result<std::unique_ptr<serving::EstimatorService>> service =
      serving::EstimatorService::Create(spec, options);
  WDE_CHECK(service.ok(), service.status().ToString().c_str());
  return std::move(service).value();
}

struct Sample {
  serving::EstimatorService::View view;
  std::vector<Query> queries;
  std::vector<double> answers;
};

struct ReaderResult {
  std::vector<double> latency_us;  // as measured
  std::vector<double> scale;       // HostProbe::Scale() next to each batch
  std::vector<double> late_ms;
  size_t queries = 0;
  size_t invalid = 0;
  std::vector<Sample> samples;
  Clock::time_point end;
};

struct WriterResult {
  // Scaled by HostProbe::Scale(), then as measured.
  std::vector<double> write_us, raw_write_us;  // admissions that did not publish
  std::vector<double> publish_ms, raw_publish_ms;  // admissions that published
  std::vector<double> checkpoint_ms, raw_checkpoint_ms;
  std::vector<double> admit_us;  // all admissions, as measured
  std::vector<double> lag_ms;    // per block: due -> end of publishing admission
  std::vector<double> late_ms;
  size_t checkpoint_failures = 0;
  Clock::time_point end;
};

struct LiveResult {
  std::map<std::string, double> e2e;    // end-to-end metrics
  std::map<std::string, double> layer;  // serving-layer metrics
  serving::EstimatorService::View final_view;
};

struct Context {
  const Workload& w;
  const Data& data;
  parallel::ThreadPool* pool;
  const CpuPlan& cpus;
  std::string run_dir;
  uint64_t seed;
  double seconds;
  bool inject_wrong_answer;
};

void RunWriter(const Context& ctx, serving::EstimatorService& service,
               Clock::time_point start, const std::string& ckpt_path,
               SpanLog* log, WriterResult& out) {
  const double period_s = static_cast<double>(kBlock) / ctx.w.writer_vps;
  e2e::HostProbe probe;
  for (size_t i = 0; i < e2e::HostProbe::kWindow; ++i) (void)probe.Scale();
  std::vector<Clock::time_point> pending;
  for (size_t b = 0; b < ctx.data.blocks; ++b) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(b) * period_s));
    WaitUntil(due - std::chrono::milliseconds(1));
    const double scale = probe.Scale();
    WaitUntil(due);
    const Clock::time_point begin = Clock::now();
    const uint64_t epoch_before = service.epoch();
    {
      ScopedSpan span(log, "serving.insert_batch", b);
      service.InsertBatch(ctx.data.Block(b));
    }
    const Clock::time_point end = Clock::now();
    const bool published = service.epoch() != epoch_before;
    const double admit_us = std::chrono::duration<double, std::micro>(end - due).count();
    out.admit_us.push_back(admit_us);
    out.late_ms.push_back(Seconds(due, begin) * 1e3);
    pending.push_back(due);
    if (published) {
      out.publish_ms.push_back(admit_us * 1e-3 * scale);
      out.raw_publish_ms.push_back(admit_us * 1e-3);
      for (Clock::time_point d : pending) out.lag_ms.push_back(Seconds(d, end) * 1e3);
      pending.clear();
    } else {
      out.write_us.push_back(admit_us * scale);
      out.raw_write_us.push_back(admit_us);
    }
    if (b % ctx.w.checkpoint_blocks == ctx.w.checkpoint_blocks / 2) {
      const Clock::time_point t0 = Clock::now();
      Status status;
      {
        ScopedSpan span(log, "serving.checkpoint", b);
        status = service.Checkpoint(ckpt_path);
      }
      const double checkpoint_ms = Seconds(t0, Clock::now()) * 1e3;
      out.checkpoint_ms.push_back(checkpoint_ms * scale);
      out.raw_checkpoint_ms.push_back(checkpoint_ms);
      if (!status.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n", status.ToString().c_str());
        ++out.checkpoint_failures;
      }
    }
  }
  out.end = Clock::now();
}

void RunReader(const Context& ctx, const serving::EstimatorService& service,
               int reader, const std::vector<std::vector<Query>>& pool,
               Clock::time_point start, const std::atomic<bool>& stop,
               SpanLog* log, ReaderResult& out) {
  const bool sampler = reader == 0;
  uint64_t next_sample_epoch = service.epoch();
  std::vector<Query> queries;
  std::vector<double> answers(kBatch);
  out.latency_us.reserve(1 << 18);
  out.scale.reserve(1 << 18);
  out.late_ms.reserve(1 << 18);
  e2e::HostProbe probe;
  double scale = 1.0;
  for (size_t i = 0; i < e2e::HostProbe::kWindow; ++i) scale = probe.Scale();
  Clock::time_point last_probe = Clock::now();
  WaitUntil(start);
  // Closed loop: a batch is due when the previous one returns.
  Clock::time_point due = start;
  for (size_t b = 0; !stop.load(std::memory_order_relaxed); ++b) {
    queries = pool[b % pool.size()];
    Perturb(queries, b / pool.size());
    if (Clock::now() - last_probe >= kReaderProbeInterval) {
      scale = probe.Scale();
      last_probe = Clock::now();
    }
    const uint64_t request = (static_cast<uint64_t>(reader) << 40) | b;
    const bool sample = sampler && out.samples.size() < kMaxSamples &&
                        service.epoch() >= next_sample_epoch;
    serving::EstimatorService::View before;
    if (sample) before = service.CurrentView();
    if (log != nullptr) {
      ScopedSpan span(log, "serving.current_view", request);
      (void)service.CurrentView();
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(log, "serving.answer", request);
      service.Answer(queries, answers);
    }
    const Clock::time_point t1 = Clock::now();
    out.latency_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    out.scale.push_back(scale);
    out.late_ms.push_back(Seconds(due, t0) * 1e3);
    due = t1;
    for (size_t i = 0; i < kBatch; ++i) {
      if (!AnswerValid(queries[i], answers[i])) ++out.invalid;
    }
    out.queries += kBatch;
    if (sample && service.CurrentView().epoch == before.epoch) {
      out.samples.push_back(Sample{before, queries, answers});
      if (ctx.inject_wrong_answer && out.samples.size() == 1) {
        out.samples.back().answers[0] += 0.25;
      }
      next_sample_epoch = before.epoch + kSampleEpochStride;
    }
  }
  out.end = Clock::now();
}

/// Mean range q-error of `view` against the exact selectivities of every
/// ingested value (a sorted copy of prefill and stream), floored at
/// kQErrorFloor.
double MeanQError(const Data& data, const std::vector<Query>& probes,
                  const std::vector<double>& answers, Checks& checks) {
  std::vector<double> sorted = data.prefill;
  sorted.insert(sorted.end(), data.stream.begin(), data.stream.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double sum = 0.0;
  size_t invalid = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (!AnswerValid(probes[i], answers[i])) ++invalid;
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), probes[i].a);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), probes[i].b);
    const double truth = std::max(kQErrorFloor, static_cast<double>(hi - lo) / n);
    const double est = std::max(kQErrorFloor, answers[i]);
    sum += std::max(est, truth) / std::min(est, truth);
  }
  checks.Record(invalid == 0, "q-error probes answered out of range");
  return sum / static_cast<double>(probes.size());
}

LiveResult RunLive(const Context& ctx, std::vector<std::unique_ptr<SpanLog>>* logs,
                   Checks& checks) {
  const Workload& w = ctx.w;
  const selectivity::EstimatorSpec spec = SpecFor(w, ctx.pool);
  auto new_log = [&](size_t reserve) -> SpanLog* {
    if (logs == nullptr) return nullptr;
    logs->push_back(
        std::make_unique<SpanLog>(static_cast<uint32_t>(logs->size()), reserve));
    return logs->back().get();
  };
  SpanLog* main_log = new_log(64);

  // Queries first, so the measured window touches only pre-generated data.
  const stats::Rng query_rng = stats::Rng(ctx.seed).Fork(7);
  std::vector<std::vector<std::vector<Query>>> pools(static_cast<size_t>(w.readers));
  for (int r = 0; r < w.readers; ++r) {
    pools[static_cast<size_t>(r)] =
        MakeBatches(stats::Rng(query_rng.Fork(static_cast<uint64_t>(r) + 1)), ctx.data,
                    kReaderPoolBatches);
  }
  const std::vector<Query> qerror_probes =
      MakeKindProbes(query_rng.Fork(100), ctx.data, QueryKind::kRange, kQErrorProbes);

  // Set-up: Create + prefill + Publish + first answer, repeated; the last
  // service is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<serving::EstimatorService> service;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = MakeService(spec, ServiceOptionsFor(w));
    service->InsertBatch(ctx.data.prefill);
    service->Publish();
    const double first = service->Answer(Query::Cdf(0.5));
    setup_s.push_back(Seconds(t0, Clock::now()));
    checks.Record(AnswerValid(Query::Cdf(0.5), first), "first answer after set-up");
  }
  const double rss_prefill_mb = RssMb("VmRSS");

  const std::string ckpt_path = ctx.run_dir + "/live.ckpt";
  const serving::CacheStats cache_before = service->cache_stats();
  const uint64_t epoch_before = service->epoch();
  std::atomic<bool> stop{false};
  WriterResult writer;
  std::vector<ReaderResult> readers(static_cast<size_t>(w.readers));
  SpanLog* writer_log = new_log(ctx.data.blocks + 64);
  std::vector<SpanLog*> reader_logs;
  for (int r = 0; r < w.readers; ++r) reader_logs.push_back(new_log(1 << 17));

  // Time for every thread to pin itself and prime its host probe.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  for (int r = 0; r < w.readers; ++r) {
    threads.emplace_back([&, r] {
      PinTo({ctx.cpus.readers[static_cast<size_t>(r)]});
      RunReader(ctx, *service, r, pools[static_cast<size_t>(r)], start, stop,
                reader_logs[static_cast<size_t>(r)], readers[static_cast<size_t>(r)]);
    });
  }
  std::thread writer_thread([&] {
    PinTo({ctx.cpus.writer});
    RunWriter(ctx, *service, start, ckpt_path, writer_log, writer);
  });
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(ctx.seconds / 2)));
  const double threads_observed = ProcStatus("Threads", 1.0);
  writer_thread.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  const double rss_end_mb = RssMb("VmRSS");
  const serving::CacheStats cache_after = service->cache_stats();
  const uint64_t epochs = service->epoch() - epoch_before;

  // Quiesce: one last publish fits the view at the full stream.
  LiveResult result;
  {
    ScopedSpan span(main_log, "serving.publish");
    service->Publish();
  }
  result.final_view = service->CurrentView();
  const selectivity::SelectivityEstimator& view = *result.final_view.estimator;

  // Correctness gate.
  size_t invalid = 0;
  std::vector<double> read_latency_us;  // scaled by the host probe
  std::vector<double> raw_read_us;      // as measured
  std::vector<double> read_scale;
  std::vector<double> reader_late_ms;
  size_t queries = 0;
  Clock::time_point readers_end = start;
  for (ReaderResult& r : readers) {
    invalid += r.invalid;
    queries += r.queries;
    raw_read_us.insert(raw_read_us.end(), r.latency_us.begin(), r.latency_us.end());
    read_scale.insert(read_scale.end(), r.scale.begin(), r.scale.end());
    for (size_t i = 0; i < r.latency_us.size(); ++i) {
      read_latency_us.push_back(r.latency_us[i] * r.scale[i]);
    }
    reader_late_ms.insert(reader_late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    readers_end = std::max(readers_end, r.end);
  }
  checks.Add(queries, invalid, "served answer not finite or out of range");
  std::vector<double> replay(kBatch);
  for (const Sample& s : readers[0].samples) {
    s.view.estimator->Answer(s.queries, replay);
    checks.Record(replay == s.answers,
                  "sampled batch differs from its pinned view on replay");
  }
  if (ctx.inject_wrong_answer && readers[0].samples.empty()) {
    checks.Record(false, "--inject-wrong-answer found no sampled batch to corrupt");
  }
  checks.Add(writer.checkpoint_ms.size(), writer.checkpoint_failures,
             "Checkpoint returned an error");

  // Final checkpoint at the end of the stream, restored into fresh services
  // that ingest nothing afterwards.
  const std::string final_path = ctx.run_dir + "/final.ckpt";
  Status saved;
  {
    ScopedSpan span(main_log, "serving.checkpoint");
    saved = service->Checkpoint(final_path);
  }
  checks.Record(saved.ok(), "final Checkpoint returned an error");
  std::vector<double> want(qerror_probes.size());
  view.Answer(qerror_probes, want);
  const std::span<const Query> restore_probes =
      std::span<const Query>(qerror_probes).first(kRestoreProbes);
  std::vector<double> restore_s;
  const Clock::time_point restores_start = Clock::now();
  for (size_t r = 0;
       saved.ok() &&
       (r < kMinRestores || Seconds(restores_start, Clock::now()) < kRestoreSpanS);
       ++r) {
    PinTo({ctx.cpus.all[r % ctx.cpus.all.size()]});
    std::unique_ptr<serving::EstimatorService> fresh =
        MakeService(spec, ServiceOptionsFor(w));
    const Clock::time_point t0 = Clock::now();
    Status restored;
    {
      ScopedSpan span(main_log, "serving.restore");
      restored = fresh->Restore(final_path);
    }
    const double first = fresh->Answer(qerror_probes[0]);
    restore_s.push_back(Seconds(t0, Clock::now()));
    checks.Record(restored.ok(), "Restore returned an error");
    if (r == 0) {
      std::vector<double> got(restore_probes.size());
      fresh->Answer(restore_probes, got);
      checks.Record(std::equal(got.begin(), got.end(), want.begin()) && first == want[0],
                    "restored service answers differ from the checkpointed view");
    }
  }
  PinTo(ctx.cpus.all);
  std::remove(ckpt_path.c_str());
  std::remove(final_path.c_str());

  const double window_s = Seconds(start, writer.end);
  std::map<std::string, double>& e = result.e2e;
  // The times of the measured window are scaled by the host probe taken
  // next to each of them, and the read rate is divided by the mean scale
  // over the batches. ingest_vps and the lag are set by the writer's
  // schedule. setup_s and restore_s are single calls, a median and a best
  // of several: scaling them by a probe made them less steady, not more.
  const double raw_qps = static_cast<double>(queries) / Seconds(start, readers_end);
  double mean_scale = 0.0;
  for (double s : read_scale) mean_scale += s;
  mean_scale /= static_cast<double>(std::max<size_t>(read_scale.size(), 1));
  e["read_qps"] = raw_qps / mean_scale;
  e["read_p50_us"] = Percentile(read_latency_us, 0.50);
  e["read_p99_us"] = Percentile(read_latency_us, 0.99);
  e["ingest_vps"] = static_cast<double>(ctx.data.blocks * kBlock) / window_s;
  e["write_p50_us"] = Percentile(writer.write_us, 0.50);
  e["publish_p50_ms"] = Percentile(writer.publish_ms, 0.50);
  e["visible_lag_p50_ms"] = Percentile(writer.lag_ms, 0.50);
  e["checkpoint_p50_ms"] = Percentile(writer.checkpoint_ms, 0.50);
  e["restore_s"] =
      restore_s.empty() ? 0.0 : *std::min_element(restore_s.begin(), restore_s.end());
  e["setup_s"] = Median(setup_s);
  e["peak_rss_mb"] = RssMb("VmHWM");
  e["mean_qerror"] = MeanQError(ctx.data, qerror_probes, want, checks);

  std::map<std::string, double>& l = result.layer;
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t probes = hits + cache_after.misses - cache_before.misses;
  l["serving.cache_hit_ratio"] =
      probes == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes);
  l["serving.cache_bypass_ratio"] =
      probes == 0 ? 0.0
                  : static_cast<double>(cache_after.lookup_bypasses -
                                        cache_before.lookup_bypasses) /
                        static_cast<double>(probes);
  l["serving.epochs"] = static_cast<double>(epochs);
  l["serving.admit_p99_us"] = Percentile(writer.admit_us, 0.99);
  l["serving.visible_lag_p99_ms"] = Percentile(writer.lag_ms, 0.99);
  l["bench.writer_late_p99_ms"] = Percentile(writer.late_ms, 0.99);
  l["bench.reader_late_p99_ms"] = Percentile(reader_late_ms, 0.99);
  l["memory.rss_prefill_mb"] = rss_prefill_mb;
  l["memory.rss_growth_mb"] = rss_end_mb - rss_prefill_mb;
  l["bench.threads_observed"] = threads_observed;
  // The scaled times as measured, and the probe time behind the scale.
  l["bench.raw.read_qps"] = raw_qps;
  l["bench.raw.read_p50_us"] = Percentile(raw_read_us, 0.50);
  l["bench.raw.write_p50_us"] = Percentile(writer.raw_write_us, 0.50);
  l["bench.raw.publish_p50_ms"] = Percentile(writer.raw_publish_ms, 0.50);
  l["bench.raw.checkpoint_p50_ms"] = Percentile(writer.raw_checkpoint_ms, 0.50);
  l["bench.host_probe_us"] = e2e::HostProbe::kReferenceUs / Median(read_scale);
  l["bench.read_batches"] = static_cast<double>(read_latency_us.size());
  l["bench.publishes"] = static_cast<double>(writer.publish_ms.size());
  l["bench.checkpoints"] = static_cast<double>(writer.checkpoint_ms.size());
  return result;
}

// ------------------------------------------------------------ traced replay

std::unique_ptr<selectivity::SelectivityEstimator> MakeWriter(
    const selectivity::EstimatorSpec& spec) {
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> writer =
      selectivity::MakeEstimator(spec);
  WDE_CHECK(writer.ok(), writer.status().ToString().c_str());
  return std::move(writer).value();
}

/// One publish as EstimatorService::Publish performs it, call by call:
/// extract a standalone view, refit it at its full count, warm it with one
/// query.
std::unique_ptr<selectivity::SelectivityEstimator> TracedPublish(
    const selectivity::SelectivityEstimator& writer, bool sharded, SpanLog* log,
    uint64_t request) {
  ScopedSpan publish(log, "bench.publish", request);
  std::unique_ptr<selectivity::SelectivityEstimator> view;
  {
    ScopedSpan span(log, "selectivity.extract", request);
    view = sharded ? static_cast<const selectivity::ShardedSelectivityEstimator&>(writer)
                         .ExtractMergedView()
                   : writer.CloneForView();
  }
  {
    ScopedSpan span(log, "selectivity.refit", request);
    view->ForceRefit();
  }
  {
    ScopedSpan span(log, "selectivity.warm", request);
    (void)view->Answer(Query::Cdf(view->Domain().hi));
  }
  return view;
}

/// Replays the live run's stream and publish positions against the
/// selectivity layer alone; returns the final writer.
std::unique_ptr<selectivity::SelectivityEstimator> ReplaySelectivity(const Context& ctx,
                                                                     SpanLog* log) {
  const selectivity::EstimatorSpec spec = SpecFor(ctx.w, ctx.pool);
  std::unique_ptr<selectivity::SelectivityEstimator> writer = MakeWriter(spec);
  const bool sharded = spec.tag == "sharded";
  {
    ScopedSpan span(log, "selectivity.insert_prefill");
    writer->InsertBatch(ctx.data.prefill);
  }
  (void)TracedPublish(*writer, sharded, log, 0);
  ScopedSpan stream(log, "bench.replay_stream");
  size_t since_publish = 0;
  for (size_t b = 0; b < ctx.data.blocks; ++b) {
    {
      ScopedSpan span(log, "selectivity.insert_batch", b);
      writer->InsertBatch(ctx.data.Block(b));
    }
    since_publish += kBlock;
    if (since_publish >= ServiceOptionsFor(ctx.w).publish_interval) {
      (void)TracedPublish(*writer, sharded, log, b);
      since_publish = 0;
    }
  }
  return writer;
}

/// Seconds to ingest the first kSpeedupBlocks stream blocks into a fresh
/// writer whose ingest runs on `pool`.
double IngestSeconds(const Context& ctx, parallel::ThreadPool* pool, SpanLog* log,
                     const char* name) {
  std::unique_ptr<selectivity::SelectivityEstimator> writer =
      MakeWriter(SpecFor(ctx.w, pool));
  const size_t blocks = std::min(kSpeedupBlocks, ctx.data.blocks);
  ScopedSpan span(log, name);
  const Clock::time_point t0 = Clock::now();
  for (size_t b = 0; b < blocks; ++b) {
    ScopedSpan insert(log, "selectivity.insert_batch", b);
    writer->InsertBatch(ctx.data.Block(b));
  }
  return Seconds(t0, Clock::now());
}

/// Answers `probes` one query per Answer call on `view`, each call a
/// "selectivity.answer" span under a `parent` span.
void AnswerProbes(const selectivity::SelectivityEstimator& view,
                  const std::vector<Query>& probes, SpanLog* log, const char* parent,
                  Checks& checks) {
  size_t invalid = 0;
  ScopedSpan span(log, parent);
  for (size_t i = 0; i < probes.size(); ++i) {
    double value = 0.0;
    {
      ScopedSpan answer(log, "selectivity.answer", i);
      value = view.Answer(probes[i]);
    }
    if (!AnswerValid(probes[i], value)) ++invalid;
  }
  checks.Add(probes.size(), invalid, "probe answered out of range");
}

/// Three in-memory save/load round trips of `writer` in one encoding, as
/// io.save_<encoding> / io.load_<encoding> spans; returns the snapshot size.
double SnapshotRoundTrips(const selectivity::SelectivityEstimator& writer, bool fast,
                          SpanLog* log, Checks& checks) {
  size_t bytes = 0;
  for (int r = 0; r < 3; ++r) {
    io::VectorSink sink;
    Status saved;
    {
      ScopedSpan span(log, fast ? "io.save_fast" : "io.save_portable");
      saved = fast ? selectivity::SaveEstimatorSnapshotFast(writer, sink)
                   : selectivity::SaveEstimatorSnapshot(writer, sink);
    }
    checks.Record(saved.ok(), "in-memory snapshot save failed");
    bytes = sink.bytes().size();
    io::SpanSource source(sink.bytes());
    bool loaded = false;
    {
      ScopedSpan span(log, fast ? "io.load_fast" : "io.load_portable");
      loaded = selectivity::LoadEstimatorSnapshot(source).ok();
    }
    checks.Record(loaded, "in-memory snapshot load failed");
  }
  return static_cast<double>(bytes);
}

std::map<std::string, double> RunTraced(const Context& ctx, Checks& checks) {
  std::map<std::string, double> m;
  const std::map<std::string, double> untraced = RunLive(ctx, nullptr, checks).e2e;
  ResetPeakRss();
  std::vector<std::unique_ptr<SpanLog>> logs;
  const LiveResult traced = RunLive(ctx, &logs, checks);
  m.insert(traced.layer.begin(), traced.layer.end());

  logs.push_back(std::make_unique<SpanLog>(static_cast<uint32_t>(logs.size()), 1 << 14));
  SpanLog* log = logs.back().get();

  // Per-kind answer cost on the pinned final view, then on a 1e5-value KDE.
  const selectivity::SelectivityEstimator& view = *traced.final_view.estimator;
  stats::Rng probe_rng(ctx.seed ^ 0xA11CE);
  const struct {
    QueryKind kind;
    const char* parent;
    const char* metric;
  } kinds[] = {
      {QueryKind::kRange, "bench.probe_range", "selectivity.answer_range_us"},
      {QueryKind::kPoint, "bench.probe_point", "selectivity.answer_point_us"},
      {QueryKind::kLess, "bench.probe_less", "selectivity.answer_less_us"},
      {QueryKind::kGreater, "bench.probe_greater", "selectivity.answer_greater_us"},
      {QueryKind::kCdf, "bench.probe_cdf", "selectivity.answer_cdf_us"},
      {QueryKind::kQuantile, "bench.probe_quantile", "selectivity.answer_quantile_us"},
  };
  for (const auto& k : kinds) {
    const size_t count = k.kind == QueryKind::kQuantile ? kQuantileProbes : kKindProbes;
    AnswerProbes(view,
                 MakeKindProbes(probe_rng.Fork(static_cast<uint64_t>(k.kind)), ctx.data,
                                k.kind, count),
                 log, k.parent, checks);
  }
  {
    selectivity::EstimatorSpec small_spec;
    small_spec.tag = "kde-rot";
    small_spec.domain_lo = kDomainLo;
    small_spec.domain_hi = kDomainHi;
    std::unique_ptr<selectivity::SelectivityEstimator> small = MakeWriter(small_spec);
    small->InsertBatch(std::span<const double>(ctx.data.prefill).first(kSmallN));
    small->ForceRefit();
    (void)small->Answer(Query::Cdf(0.5));
    AnswerProbes(*small,
                 MakeKindProbes(probe_rng.Fork(50), ctx.data, QueryKind::kCdf,
                                kKindProbes),
                 log, "bench.probe_cdf_n1e5", checks);
    AnswerProbes(
        *small,
        MakeKindProbes(probe_rng.Fork(51), ctx.data, QueryKind::kQuantile,
                       kQuantileProbes),
        log, "bench.probe_quantile_n1e5", checks);
  }

  // The layers the service hides: insert, extract, refit, warm.
  const std::unique_ptr<selectivity::SelectivityEstimator> writer =
      ReplaySelectivity(ctx, log);
  const std::vector<const SpanLog*> all = [&] {
    std::vector<const SpanLog*> v;
    for (const auto& l : logs) v.push_back(l.get());
    return v;
  }();
  m["selectivity.insert_us"] =
      Median(DurationsUs(all, "selectivity.insert_batch", "bench.replay_stream"));
  m["selectivity.extract_ms"] = Median(DurationsUs(all, "selectivity.extract")) * 1e-3;
  m["selectivity.refit_ms"] = Median(DurationsUs(all, "selectivity.refit")) * 1e-3;
  m["selectivity.warm_us"] = Median(DurationsUs(all, "selectivity.warm"));
  m["serving.view_acquire_us"] = Median(DurationsUs(all, "serving.current_view"));

  if (ctx.w.wavelet) {
    parallel::ThreadPool serial(0);
    std::vector<double> ratio;
    for (int r = 0; r < 3; ++r) {
      const double t_serial = IngestSeconds(ctx, &serial, log, "bench.insert_serial");
      const double t_pool = IngestSeconds(ctx, ctx.pool, log, "bench.insert_pooled");
      ratio.push_back(t_serial / t_pool);
    }
    m["parallel.insert_speedup"] = Median(ratio);
  } else {
    m["parallel.insert_speedup"] = 1.0;  // unsharded writer: no ingest pool
  }

  m["io.bytes_portable"] = SnapshotRoundTrips(*writer, false, log, checks);
  m["io.bytes_fast"] = SnapshotRoundTrips(*writer, true, log, checks);
  for (const char* call : {"io.save_portable", "io.load_portable", "io.save_fast",
                           "io.load_fast"}) {
    m[std::string(call) + "_ms"] = Median(DurationsUs(all, call)) * 1e-3;
  }
  for (const auto& k : kinds) {
    m[k.metric] = Median(DurationsUs(all, "selectivity.answer", k.parent));
  }
  m["selectivity.answer_cdf_us.n1e5"] =
      Median(DurationsUs(all, "selectivity.answer", "bench.probe_cdf_n1e5"));
  m["selectivity.answer_quantile_us.n1e5"] =
      Median(DurationsUs(all, "selectivity.answer", "bench.probe_quantile_n1e5"));

  for (const auto& [layer, ms] : SelfMsByLayer(all)) m["trace.self_ms." + layer] = ms;
  // Tracing overhead, two ways: the recording cost of one span, measured
  // directly, and the difference between the traced and untraced passes,
  // which also carries whatever the host's speed did between the two.
  m["trace.span_cost_ns"] = e2e::SpanCostNs();
  for (const char* metric : {"read_qps", "read_p50_us", "ingest_vps", "write_p50_us",
                             "publish_p50_ms", "visible_lag_p50_ms"}) {
    const double base = untraced.at(metric);
    m[std::string("trace.overhead_pct.") + metric] =
        base == 0.0 ? 0.0 : (traced.e2e.at(metric) - base) / base * 100.0;
  }
  const std::string trace_path =
      ctx.run_dir + "/trace-" + ctx.w.name + "-" + std::to_string(ctx.seed) + ".jsonl";
  checks.Record(WriteSpans(all, trace_path), "cannot write the span file");
  return m;
}

const char* UnitOf(const std::string& name) {
  static const std::map<std::string, const char*> units = {
      {"read_qps", "1/s"},        {"read_p50_us", "us"},       {"read_p99_us", "us"},
      {"ingest_vps", "1/s"},      {"write_p50_us", "us"},      {"publish_p50_ms", "ms"},
      {"visible_lag_p50_ms", "ms"}, {"checkpoint_p50_ms", "ms"}, {"restore_s", "s"},
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},       {"mean_qerror", "ratio"},
      {"ok_ratio", "ratio"}};
  const auto it = units.find(name);
  if (it != units.end()) return it->second;
  const auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (name.rfind("trace.overhead_pct.", 0) == 0) return "%";
  if (name.rfind("trace.self_ms.", 0) == 0 || ends_with("_ms")) return "ms";
  if (ends_with("_ns")) return "ns";
  if (ends_with("_qps")) return "1/s";
  if (ends_with("_us") || name.find("_us.") != std::string::npos) return "us";
  if (ends_with("_mb")) return "MB";
  if (name.rfind("io.bytes", 0) == 0) return "bytes";
  if (ends_with("_ratio") || ends_with("_speedup")) return "ratio";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::perf::CheckBuildForTiming(/*check_mode=*/true)) return 2;
  // A fixed mmap threshold returns every freed view and snapshot buffer to
  // the OS. glibc's default threshold slides up to 32 MB after the first
  // large free, after which freed multi-MB views stay in per-thread heaps
  // and VmHWM depends on which thread freed what, when.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const std::string name = ArgString(argc, argv, "workload", "");
  const uint64_t seed = ArgSize(argc, argv, "seed", 1);
  const double seconds =
      std::strtod(ArgString(argc, argv, "seconds", "10").c_str(), nullptr);
  const bool trace = ArgSize(argc, argv, "trace", 0) != 0;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=<wcv-read|kde-read> --seed=N "
                 "--seconds=S --trace=<0|1> [--inject-wrong-answer]\n");
    return 2;
  }
  // Steadiness guard: every busy thread gets its own CPU. The writer thread
  // takes part in its own pool's ParallelFor, so it counts once beside the
  // pool workers.
  CpuPlan plan;
  plan.all = AvailableCpus();
  const int cpus = static_cast<int>(plan.all.size());
  const int busy = 1 + workload->readers + workload->pool_workers;
  if (busy > cpus) {
    std::fprintf(stderr,
                 "refusing to run: %d busy threads (1 writer + %d readers + %d pool "
                 "workers) exceed the %d available CPUs\n",
                 busy, workload->readers, workload->pool_workers, cpus);
    return 2;
  }
  size_t next_cpu = 0;
  plan.writer = plan.all[next_cpu++];
  for (int i = 0; i < workload->pool_workers; ++i) {
    plan.pool.push_back(plan.all[next_cpu++]);
  }
  for (int i = 0; i < workload->readers; ++i) {
    plan.readers.push_back(plan.all[next_cpu++]);
  }
  const std::string run_dir = ".bench_run";
  std::filesystem::create_directories(run_dir);

  // The traced run measures two windows (untraced, traced) and splits
  // --seconds between them, so it takes about as long as an untraced run.
  const double window_s = trace ? seconds / 2 : seconds;
  const Data data = MakeData(*workload, seed, window_s);
  std::unique_ptr<parallel::ThreadPool> pool;
  if (workload->wavelet) {
    PinTo(plan.pool);  // the workers inherit this mask
    pool = std::make_unique<parallel::ThreadPool>(workload->pool_workers);
    PinTo(plan.all);
  }
  const AwakeCpus awake(plan.pool);
  const Context ctx{*workload, data, pool.get(), plan, run_dir, seed, window_s,
                    ArgBool(argc, argv, "inject-wrong-answer")};

  Checks checks;
  std::map<std::string, double> metrics;
  if (trace) {
    metrics = RunTraced(ctx, checks);
  } else {
    metrics = RunLive(ctx, nullptr, checks).e2e;
    metrics["ok_ratio"] = static_cast<double>(checks.attempted - checks.failed) /
                          static_cast<double>(std::max<size_t>(checks.attempted, 1));
  }

  for (const auto& [metric, value] : metrics) {
    std::printf("%-40s %.10g %s\n", metric.c_str(), value, UnitOf(metric));
  }
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %d, \"writer_threads\": 1, \"reader_threads\": %d, "
      "\"pool_workers\": %d, "
      "\"build_type\": \"%s\", \"blocks\": %zu}\n",
      workload->name, static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0, cpus,
      workload->readers, workload->pool_workers, bench::perf::BuildType(), data.blocks);
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [metric, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += (first ? "\"" : ", \"") + metric + "\": {\"value\": " + buf +
            ", \"unit\": \"" + UnitOf(metric) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}
