// Shared plumbing of the arbbench program: arguments, clocks, percentiles,
// the metric report, and the in-memory span log of traced runs.
//
// Spans are taken here, in the benchmark, around calls into each module's
// public functions; nothing inside src/ is instrumented for the benchmark.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch directory inside the checkout
  std::string daemon;   ///< path of the built arbmis_serve binary
  std::string trace_out;  ///< where a traced run writes its spans
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double peak_rss_mb(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Minor page faults of this process so far: first touches of fresh
/// memory, a large and machine-dependent share of op time.
inline double minor_faults() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_minflt);
}

/// A 64-bit hash as 16 hex digits (JSON numbers cannot hold it exactly).
inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Runs `fn` `reps` times and returns the median wall time in seconds.
/// Set-up is measured this way so that one slow repetition does not move
/// setup_s; every repetition must leave the workload fully set up.
inline double median_setup_s(int reps, const std::function<void()>& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    s.push_back(ms_since(t0) / 1e3);
  }
  return median(s);
}

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one, by their
/// BENCHMARK.json names (run.py adds the units, and reports a per-layer
/// metric the workload leaves out as 0); `detail` holds sample counts and
/// the exact counts printed beside the timings.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> detail;
  std::map<std::string, std::string> detail_text;

  /// Records one checked outcome; a false `ok` counts as a failed op.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One span of a traced op: [start, end) with the index of its parent
/// (-1 for a root). Layer self time is the span's duration minus the part
/// its children cover.
struct Span {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int parent = -1;
};

class SpanLog {
 public:
  /// Opens a span under the innermost open one and returns its index.
  int open(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_ns();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }
  /// Appends a span measured elsewhere (e.g. from a telemetry sink).
  int add(std::string name, std::uint64_t start, std::uint64_t end,
          int parent) {
    spans_.push_back({std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::size_t size() const noexcept { return spans_.size(); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time in ms per span name over spans [first, size()).
  std::map<std::string, double> self_ms(std::size_t first) const;
  /// Total duration in ms of the children of span `index`.
  double children_ms(int index) const;
  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span on a SpanLog; a null log makes it a no-op, so one code path
/// serves the traced and the untraced op.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Per-name medians over traced ops: each op contributes one value per
/// name (0 when the name did not occur in that op).
class OpSeries {
 public:
  void add_op(const std::map<std::string, double>& values);
  double median_of(const std::string& name) const;

 private:
  std::vector<std::map<std::string, double>> ops_;
};

/// Sum of the durations (ms) of every `name` span in a chrome-trace JSON
/// document as produced by obs::Profiler::to_chrome_trace_json.
double chrome_trace_total_ms(const std::string& json, const std::string& name);

void run_pipeline(const Args& args, Report& report);
void run_ingest(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
