// Runtime CONGEST model checker.
//
// The simulator's message type (one tag + one 64-bit word) makes gross
// bandwidth violations impossible by construction, but three subtler ways
// of cheating the model remain expressible:
//
//   1. width  — packing more than O(log n) significant bits into the
//      payload word, or smuggling extra words down one edge in a round
//      when the per-edge message cap is relaxed;
//   2. state  — reading or mutating another node's simulator state outside
//      message delivery, e.g. by stashing a NodeContext in one callback and
//      using it from another node's callback (global peeking);
//   3. randomness — drawing more than a word of randomness per round, or
//      sampling a *different* node's private stream.
//
// ModelChecker turns each of these into an enforced runtime invariant.
// Network calls the hooks below on every send, inbox consumption, RNG read,
// and callback boundary; a violation is reported through util/log and (by
// default) aborts the run with CongestViolation. The checker also keeps
// the read-k ledger the paper's analysis is built on: when a node draws
// fresh randomness in round r, the draw is "read" once by the node itself
// and once per *delivered* message it sends that round (neighbors consume
// the value next round — exactly how priorities propagate in Algorithm 1).
// The maximum multiplicity observed is reported as `k`, mirroring
// ReadKFamily::read_k() in src/readk/family.h: on a run of
// BoundedArbIndependentSet the two quantities coincide (see
// tests/test_model_check.cpp).
//
// Ledger layout (flag in the arena): the checker keeps no message storage
// of its own. on_send tells the Network whether a message carries its
// sender's randomness of the round; the Network stores that answer as a
// one-byte flag beside every delivered copy — next to the message's arena
// slot, in the overflow side buffer, or in the reference inbox vector —
// and the staged lane path carries it inside the staged send. The origin
// of a randomness-bearing message is simply its `src`, so on_consume walks
// the recipient's inbox and counts `src` of each flagged message. Dropped
// copies are never delivered and duplicated ones are delivered (and
// counted) once per copy. The per-edge bit counter is a field of the
// Network's per-directed-edge load record, stamped with the same round
// epoch as the message count it sits beside.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/fault_hooks.h"
#include "sim/message.h"

namespace arbmis::sim {

/// Thrown (when ModelCheckOptions::fail_fast) on any model violation.
class CongestViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct ModelCheckOptions {
  /// Master switch. On by default: the whole test/bench battery runs under
  /// enforcement, which is the point (ISSUE 1).
  bool enabled = true;
  /// Throw CongestViolation at the first violation (after logging). When
  /// false, violations are only counted and logged.
  bool fail_fast = true;
  /// Bits charged for the message tag (O(1) distinct kinds per algorithm).
  std::uint32_t tag_bits = 8;
  /// Per-edge per-round budget = allowed_messages *
  /// max(min_edge_bits, log_n_factor * ceil(log2(n + 1))).
  std::uint32_t log_n_factor = 8;
  /// Floor of the per-message budget: one CONGEST word (64 payload bits +
  /// tag), so the budget never dips below what Message physically holds.
  std::uint32_t min_edge_bits = 72;
  /// Randomness budget: logical draws one node may make in one round. Two
  /// covers every algorithm in the repository (Israeli–Itai needs a coin
  /// plus a port pick); the paper's Algorithm 1 uses exactly one.
  std::uint32_t max_rng_reads_per_round = 2;
};

/// What the checker saw over one Network::run.
struct ModelCheckReport {
  std::uint32_t rounds_observed = 0;
  /// Enforced per-edge per-round budget in bits (for one allowed message).
  std::uint32_t edge_bit_budget = 0;
  /// Widest single message: tag_bits + significant payload bits.
  std::uint32_t max_message_bits = 0;
  /// Max cumulative bits one directed edge carried in one round.
  std::uint32_t max_edge_bits_per_round = 0;
  /// Max logical RNG draws by one node in one round.
  std::uint32_t max_rng_reads_per_round = 0;
  /// Read multiplicity: max number of consumers of one node's per-round
  /// randomness (the node itself plus delivered recipients). This is the
  /// simulator-side analog of ReadKFamily::read_k().
  std::uint32_t k = 0;
  std::uint64_t violations = 0;
  /// Injected-fault totals for the run (all zero when no FaultInjector is
  /// attached). Note that a duplicated randomness-bearing message counts
  /// twice in the read-k ledger: the recipient observably reads the value
  /// once per delivered copy.
  FaultTotals faults;
  /// Per-round series (index = round number; round 0 is on_start).
  std::vector<std::uint32_t> round_max_message_bits;
  std::vector<std::uint32_t> round_k;

  /// One-line human summary for logs.
  std::string summary() const;
};

/// Per-worker staging area for the checker under the parallel round
/// executor (see sim/network.h). During a parallel phase each worker
/// funnels the *shared* parts of the checker's accounting — report maxima,
/// violation counts, and the consumed-origin list of the read-k ledger —
/// into its own lane; ModelChecker::merge_lane folds the lanes back in
/// shard (= node-id) order at the round barrier, so the merged report is
/// byte-identical to a serial run. Per-node/per-edge counters stay in
/// shared arrays even during a parallel phase: every slot there is owned
/// by exactly one node and therefore by exactly one worker.
struct ModelCheckerLane {
  /// Node whose callback this worker is executing (the pinning check).
  graph::NodeId active_node;
  /// Max message width observed by this worker, run-wide and this round.
  std::uint32_t max_message_bits = 0;
  std::uint32_t round_max_message_bits = 0;
  /// Max cumulative per-edge bits observed by this worker (edges are
  /// sender-owned, so the counters are exact; only the max is staged).
  std::uint32_t max_edge_bits = 0;
  /// Max per-node draws in one round observed by this worker.
  std::uint32_t max_rng_reads = 0;
  /// True if any node made its first draw of the round on this worker.
  bool any_first_draw = false;
  /// Origins of randomness-bearing messages consumed by this worker's
  /// nodes, in node order; multiplicity counting is replayed at the merge.
  std::vector<graph::NodeId> consumed_origins;
  std::uint64_t violations = 0;
  /// Violation messages staged by this worker. Telemetry must not be
  /// emitted from worker threads, so the kViolation events (and the
  /// flight-recorder auto-dump) fire at the merge barrier instead.
  std::vector<std::string> violation_texts;

  ModelCheckerLane();

  /// Clears the per-phase fields (merge_lane calls this after folding).
  void reset();
};

/// Instrumentation attached to a Network. All hooks are O(1); with
/// `enabled == false` every hook returns immediately.
///
/// Every hook takes a ModelCheckerLane pointer: nullptr selects the serial
/// path (accounting goes straight into the shared report, exactly the
/// pre-parallelism behavior); a non-null lane selects the staged path used
/// by the parallel executor.
class ModelChecker {
 public:
  static constexpr graph::NodeId kNoNode = ~graph::NodeId{0};

  ModelChecker() = default;
  ModelChecker(graph::GraphView g, ModelCheckOptions options,
               std::uint32_t allowed_messages_per_edge);

  bool enabled() const noexcept { return options_.enabled; }
  const ModelCheckReport& report() const noexcept { return report_; }

  /// Resets per-run state (Network::run calls this at the top of each run).
  void begin_run();
  /// Pins the node whose callback is executing; kNoNode between callbacks.
  void begin_callback(ModelCheckerLane* lane, graph::NodeId v) noexcept {
    (lane ? lane->active_node : active_node_) = v;
  }
  void end_callback(ModelCheckerLane* lane) noexcept {
    (lane ? lane->active_node : active_node_) = kNoNode;
  }

  /// Hook for every send. `edge_bits` is the sending directed edge's
  /// cumulative bit count this round — a field of the Network's per-edge
  /// load record, already reset for `round`. Enforces the bit budget and
  /// returns true iff the message is randomness-bearing (`from` drew
  /// earlier this round); the Network stores that flag beside every copy
  /// it delivers. The sender is charged its full CONGEST budget even when
  /// faults drop the message.
  bool on_send(ModelCheckerLane* lane, graph::NodeId from,
               std::uint32_t& edge_bits, std::uint64_t payload,
               std::uint32_t round);

  /// Hook for each node about to consume its inbox this round: counts the
  /// read multiplicity of `src` of every message whose flag is set
  /// (`rng_bearing[i]` belongs to `inbox[i]`; lane path: defers the
  /// counting to merge_lane).
  void on_consume(ModelCheckerLane* lane, std::span<const Message> inbox,
                  std::span<const std::uint8_t> rng_bearing,
                  std::uint32_t round);

  /// Hook for one logical draw from node v's private stream.
  void on_rng_read(ModelCheckerLane* lane, graph::NodeId v,
                   std::uint32_t round);

  /// Hook for a halt request (cross-node halt is a state write).
  void on_halt(ModelCheckerLane* lane, graph::NodeId v);

  /// Folds one worker's staged accounting into the shared report. Called
  /// at the round barrier in shard order; `round` is the round the lane's
  /// callbacks executed in (0 for the on_start phase). Resets the lane.
  void merge_lane(ModelCheckerLane& lane, std::uint32_t round);

  /// Copies the fault injector's run-wide totals into the report (Network
  /// calls this once at the end of a faulty run).
  void record_fault_totals(const FaultTotals& totals);

  /// Final bookkeeping; logs the summary at debug level.
  void end_run(std::uint32_t rounds);

 private:
  /// A count valid while `epoch` equals the current round.
  struct Stamped {
    std::uint32_t epoch = ~std::uint32_t{0};
    std::uint32_t count = 0;

    std::uint32_t& at(std::uint32_t round) noexcept {
      if (epoch != round) {
        epoch = round;
        count = 0;
      }
      return count;
    }
  };

  /// Per-node ledger, one record per node so a draw and a consumption
  /// each touch one record. `rng_reads` counts v's draws this
  /// round (v "drew this round" iff it is non-zero for the round). A draw
  /// made in round r is consumed by neighbors in round r + 1, when v may
  /// already be drawing again, so the read multiplicity keeps two slots
  /// indexed by round parity: `mult[r & 1]` counts the readers of v's
  /// round-r draw while its epoch is r.
  struct NodeLedger {
    Stamped rng_reads;
    Stamped mult[2];
  };

  void violation(ModelCheckerLane* lane, const std::string& what);
  /// Bumps the read multiplicity of `origin`'s round-`draw_round` draw.
  void count_consumption(graph::NodeId origin, std::uint32_t draw_round);

  ModelCheckOptions options_;
  std::uint32_t edge_bit_budget_ = 0;  ///< budget for all allowed messages
  graph::NodeId active_node_ = kNoNode;
  std::vector<NodeLedger> nodes_;

  ModelCheckReport report_;
};

}  // namespace arbmis::sim
