// Internals shared by the engine family: the per-engine entry points the
// solve() dispatcher fans out to, the (priority, id) comparison every
// engine must break ties with, and the contiguous-range worker harness.
// Engine code only — hosts use engine/engine.h.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "engine/engine.h"
#include "graph/graph.h"
#include "sim/thread_pool.h"

namespace arbmis::engine::internal {

/// Strict weak order all engines agree on: priority ascending, node id as
/// the tiebreak. A node u "beats" v when less(u, v).
inline bool less(std::span<const std::uint64_t> priority, graph::NodeId u,
                 graph::NodeId v) noexcept {
  return priority[u] != priority[v] ? priority[u] < priority[v] : u < v;
}

/// Data-parallel harness over contiguous node ranges. 0 and 1 workers run
/// the body inline; otherwise a sim::ThreadPool executes one static range
/// per worker. Every phase dispatched through run_ranges() is a barrier:
/// the body must read only state written before the call and write only
/// slots no other range touches (or same-value relaxed atomics), which is
/// what makes the engines thread-count-invariant by construction.
class Workers {
 public:
  explicit Workers(std::uint32_t num_threads) {
    if (num_threads >= 2) {
      pool_ = std::make_unique<sim::ThreadPool>(num_threads);
    }
  }

  std::uint32_t count() const noexcept {
    return pool_ == nullptr ? 1 : pool_->num_workers();
  }

  /// Invokes body(begin, end) over a static partition of [0, n).
  template <typename Body>
  void run_ranges(graph::NodeId n, const Body& body) {
    if (pool_ == nullptr) {
      body(graph::NodeId{0}, n);
      return;
    }
    const std::uint64_t workers = pool_->num_workers();
    pool_->run([&](std::uint32_t w) {
      const auto begin = static_cast<graph::NodeId>(
          static_cast<std::uint64_t>(n) * w / workers);
      const auto end = static_cast<graph::NodeId>(
          static_cast<std::uint64_t>(n) * (w + 1) / workers);
      if (begin < end) body(begin, end);
    });
  }

 private:
  std::unique_ptr<sim::ThreadPool> pool_;
};

EngineResult solve_tas(graph::GraphView g, const EngineOptions& options,
                       std::span<const std::uint64_t> priority);
EngineResult solve_greedy(graph::GraphView g,
                          std::span<const std::uint64_t> priority);

}  // namespace arbmis::engine::internal
