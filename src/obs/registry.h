// Metrics registry: named counters, gauges, and histograms accumulated
// over a run and dumped as one stable JSON document ("arbmis.metrics.v1")
// next to the existing results/BENCH_*.json artifacts.
//
// Metric names are dotted paths ("sim.messages", "core.phase_rounds");
// docs/OBSERVABILITY.md lists every name the simulator emits. Storage is
// ordered (std::map), so the JSON is byte-stable for a given sequence of
// updates — tools/bench_gate.py diffs selected counters against committed
// baselines by exact equality.
//
// Counters opted in via track_round_series() additionally record a
// per-round delta series at each snapshot_round() call (subsampled by
// round_sample), giving "messages per round" style curves without a
// second instrumentation pass.
//
// Attachment mirrors the sink: a process-wide pointer installed by
// ScopedRegistry, nullptr when detached. All updates are made at serial
// points — round barriers, run ends, driver code and the serving path's
// request epilogue; the simulator's per-message widths reach the registry
// once per round through observe_counts() — so the lock is uncontended.
// It stays so that callers on different threads (a daemon's connection
// threads, a scrape) never race.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/manifest.h"
#include "util/histogram.h"

namespace arbmis::obs {

inline constexpr const char* kMetricsSchemaVersion = "arbmis.metrics.v1";

class Registry {
 public:
  explicit Registry(std::uint32_t round_sample = 1)
      : round_sample_(round_sample == 0 ? 1 : round_sample) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Monotonic counter.
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Last-write-wins gauge.
  void set(std::string_view name, std::int64_t value);
  /// Power-of-two-bucket histogram (util::Log2Histogram) — the default
  /// for heavy-tailed integer quantities such as payload widths.
  void observe(std::string_view name, std::uint64_t value);
  /// Bulk observe(): counts[v] observations of value v, under one lock
  /// and one lookup. An all-zero `counts` creates no histogram, so the
  /// document is the same as after the equivalent observe() calls.
  void observe_counts(std::string_view name,
                      std::span<const std::uint64_t> counts);
  /// Fixed-bucket linear histogram over [lo, hi); the bucket layout is
  /// fixed by the first call for a given name.
  void observe_linear(std::string_view name, double lo, double hi,
                      std::size_t buckets, double value);

  /// Opt `name` (a counter) into the per-round delta series recorded by
  /// snapshot_round().
  void track_round_series(std::string_view name);

  /// Record one round boundary: for every tracked counter, append the
  /// delta since the previous snapshot. Rounds where
  /// round % round_sample != 0 are skipped.
  void snapshot_round(std::uint32_t round);

  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;
  std::uint32_t round_sample() const noexcept { return round_sample_; }

  /// The full "arbmis.metrics.v1" document; embeds `manifest` when given.
  std::string to_json(const Manifest* manifest = nullptr) const;

 private:
  struct Series {
    std::uint64_t last = 0;
    std::vector<std::uint64_t> deltas;
  };

  /// The named log2 histogram, created empty on first use; mu_ held.
  util::Log2Histogram& log2_histogram(std::string_view name);

  mutable std::mutex mu_;
  std::uint32_t round_sample_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, util::Log2Histogram, std::less<>> log2_histograms_;
  std::map<std::string, util::Histogram, std::less<>> linear_histograms_;
  std::map<std::string, Series, std::less<>> series_;
  std::vector<std::uint32_t> sampled_rounds_;
};

/// Process-wide registry, or nullptr when metrics are detached.
Registry* registry() noexcept;

/// RAII attachment of a registry; restores the previous one on
/// destruction. Non-owning.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* r);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

}  // namespace arbmis::obs
