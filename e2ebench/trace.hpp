// In-memory span recorder of the end-to-end benchmark's traced run.
//
// A span brackets one call the driver makes into a layer's public function
// (serving::EstimatorService::InsertBatch, SelectivityEstimator::ForceRefit,
// SaveEstimatorSnapshot, ...). Spans are recorded by the benchmark around
// those calls, never inside the library, so the measured code is the shipped
// code. Each thread appends to its own SpanLog (no locks, no sharing); a span
// opened while another is open on the same thread is that span's child. The
// logs are written out as JSON lines when the run ends.
//
// A null SpanLog* disables recording: ScopedSpan then costs one branch, which
// is how the untraced run measures the end-to-end metrics.
#ifndef WDE_E2EBENCH_TRACE_HPP_
#define WDE_E2EBENCH_TRACE_HPP_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // string literal: "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // global id of the enclosing span, -1 at top level
  uint64_t request = 0;
};

/// One thread's spans. Global span id = (log id << 32) | index in the log.
class SpanLog {
 public:
  explicit SpanLog(uint32_t id, size_t reserve = 0) : id_(id) {
    spans_.reserve(reserve);
  }

  int64_t Begin(const char* name, uint64_t request) {
    const int64_t global = (static_cast<int64_t>(id_) << 32) |
                           static_cast<int64_t>(spans_.size());
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(span);
    open_.push_back(global);
    spans_.back().start_ns = NowNs();
    return global;
  }

  void End(int64_t global) {
    const int64_t now = NowNs();
    spans_[static_cast<size_t>(global & 0xffffffff)].end_ns = now;
    open_.pop_back();
  }

  uint32_t id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t id_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

/// The cost of recording one span, in nanoseconds: `spans` empty spans opened
/// and closed in a tight loop (one clock read at each end of a span, plus
/// the bookkeeping), the median of five such loops.
inline double SpanCostNs(size_t spans = size_t{1} << 16) {
  std::vector<double> per_span;
  for (int r = 0; r < 5; ++r) {
    SpanLog log(0, spans);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < spans; ++i) ScopedSpan span(&log, "trace.cost", i);
    per_span.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(spans));
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

/// Durations in microseconds of every span called `name`, optionally only
/// those whose parent span is called `parent_name`.
inline std::vector<double> DurationsUs(const std::vector<const SpanLog*>& logs,
                                       const std::string& name,
                                       const char* parent_name = nullptr) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (const Span& span : spans) {
      if (name != span.name) continue;
      if (parent_name != nullptr) {
        if (span.parent < 0) continue;
        const Span& parent = spans[static_cast<size_t>(span.parent & 0xffffffff)];
        if (std::string(parent_name) != parent.name) continue;
      }
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

/// Self time per layer in milliseconds: each span's duration minus the time
/// its children cover (children run on the parent's thread and nest inside
/// it, so the covered time is the sum of their durations), summed over the
/// spans whose name starts with "<layer>.".
inline std::map<std::string, double> SelfMsByLayer(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> self_ms;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent & 0xffffffff)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      self_ms[layer] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]) *
          1e-6;
    }
  }
  return self_ms;
}

/// Writes every span as one JSON object per line. Returns false when the
/// file cannot be written.
inline bool WriteSpans(const std::vector<const SpanLog*>& logs,
                       const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"id\": %lld, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}\n",
                   static_cast<long long>((static_cast<int64_t>(log->id()) << 32) |
                                          static_cast<int64_t>(i)),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e

#endif  // WDE_E2EBENCH_TRACE_HPP_
