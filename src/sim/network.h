// Synchronous CONGEST network simulator.
//
// Execution model: in each round the network (1) delivers all messages sent
// in the previous round, (2) calls Algorithm::on_round for every non-halted
// node, collecting its sends into next-round inboxes, and (3) advances the
// round counter. Nodes halt individually via NodeContext::halt(); the run
// ends when every node has halted or the round budget is exhausted.
//
// Parallel execution: with NetworkOptions::num_threads >= 1 step (2) runs
// on a persistent worker pool (sim/thread_pool.h). Each round the
// non-halted nodes are sharded into contiguous node-id ranges of
// near-equal size, one shard per worker; every worker buffers its sends,
// halt count, and checker accounting into a private ExecLane, and the
// lanes are merged at the round barrier in shard (= node-id) order.
//
// Determinism-merge rule: the serial executor emits sends in ascending
// sender id (it scans v = 0..n-1) and each node's RNG stream is private,
// so replaying the lane buffers in shard order reproduces the serial
// inbox order, stats, and ModelChecker ledger *byte-identically* for every
// thread count — tests/test_parallel_equivalence.cpp is the proof.
// num_threads == 0 selects the legacy serial path (and is the default);
// a process-wide override for code that constructs its own Networks deep
// inside pipelines is available via ScopedNumThreads.
//
// Accounting: rounds, total messages, total payload bits, and the maximum
// number of messages any single directed edge carried in one round. With
// `enforce_congest` (default on) a node sending more than
// `max_messages_per_edge_per_round` on one port aborts the run with
// std::logic_error — this is how the test suite proves the algorithms obey
// the CONGEST normalization rather than merely claiming it. On top of the
// message-count cap, a ModelChecker (sim/model_check.h, also default-on)
// enforces the per-edge bit budget, RNG-stream isolation with a per-round
// randomness budget, and callback pinning (no cross-node state access),
// and keeps the read-k multiplicity ledger reported via
// model_check_report().
//
// Determinism: node v draws from Rng(seed).child(v); callback order never
// affects the streams, so a run is a pure function of (graph, seed,
// algorithm) — and, by the merge rule above, independent of num_threads.
//
// Fault injection: NetworkOptions::fault attaches a FaultInjector
// (sim/fault_hooks.h; the deterministic FaultPlan lives in src/fault/).
// Message fates are decided per send as a pure function of (plan, edge
// slot, round), surviving copies ride the regular lane staging, and node
// crashes/recoveries resolve serially at the round barrier — so a faulty
// run is a pure function of (graph, seed, algorithm, plan) and remains
// byte-identical across thread counts. With no injector attached every
// fault path is skipped.
//
// Message arena (the delivery fast path): the CONGEST normalization caps
// traffic at one message per directed edge per round, so instead of one
// heap vector per node the default inbox is a flat arena with exactly one
// Message slot per directed edge, laid out in the CSR edge order the
// per-edge load records already use (slot base of node v =
// edge_offset_[v]). Beside every slot sits the one-byte read-k flag the
// ModelChecker's ledger runs on (1 iff the message carries its sender's
// randomness of the round it was sent in); overflow side buffers and the
// reference inbox vectors carry the same flag per message.
// A send appends at inbox_count_next_[target], so node v's inbox is the
// contiguous range [edge_offset_[v], edge_offset_[v] + count) of the
// arena — filled in ascending sender id, which for sorted adjacency IS
// port order, i.e. byte-identical to the retained vector-inbox reference
// implementation. Delivery, lane merge, and fault-injected duplicates are
// plain index writes into storage allocated once at construction: after
// the constructor returns, a fault-free run performs zero heap
// allocations in either executor. Fault duplicates (and runs that opt out
// of enforce_congest) can exceed the one-slot-per-edge capacity; the
// excess overflows into a per-node side buffer that is empty — and costs
// nothing — on the normal path, keeping "<= 1 message per directed edge
// per round" an enforced invariant rather than a load-bearing assumption.
// NetworkOptions::inbox / ScopedInboxImpl select the reference
// implementation for differential tests (tests/test_message_arena.cpp,
// the arena matrix in tests/test_parallel_equivalence.cpp, and the
// arena-vs-reference fuzz in tests/test_fuzz.cpp are the proof).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/algorithm.h"
#include "sim/fault_hooks.h"
#include "sim/message.h"
#include "sim/model_check.h"
#include "sim/thread_pool.h"
#include "util/rng.h"

namespace arbmis::sim {

/// Inbox storage strategy (see the "Message arena" section of the header
/// comment). The reference implementation is retained verbatim so the
/// arena can be differentially tested against the pre-arena behavior.
enum class InboxImpl : std::uint8_t {
  kProcessDefault = 0,  ///< resolve via default_inbox_impl()
  kArena,               ///< flat per-directed-edge slots (the fast path)
  kReferenceVectors,    ///< legacy vector<vector<Message>> inboxes
};

struct NetworkOptions {
  bool enforce_congest = true;
  std::uint32_t max_messages_per_edge_per_round = 1;
  /// Inbox storage. kProcessDefault resolves to the process-wide default
  /// (the arena unless a ScopedInboxImpl override is active). Results are
  /// bit-identical across all values.
  InboxImpl inbox = InboxImpl::kProcessDefault;
  /// Fault injector (non-owning; must outlive every run). nullptr (the
  /// default) disables every fault path — runs are byte-identical to a
  /// build without the subsystem. See sim/fault_hooks.h for the contract
  /// and src/fault/ for the deterministic FaultPlan implementation.
  FaultInjector* fault = nullptr;
  /// Worker threads for round execution. 0 (default) = the process-wide
  /// default, which is the serial executor unless a ScopedNumThreads
  /// override is active; >= 1 = the staged parallel executor with exactly
  /// that many workers (1 still exercises the staging + merge machinery).
  /// Results are bit-identical across all values.
  std::uint32_t num_threads = 0;
  /// Runtime CONGEST model checker (enabled by default; see
  /// sim/model_check.h). Set `model_check.enabled = false` to opt out.
  ModelCheckOptions model_check;
};

/// Process-wide worker count applied when NetworkOptions::num_threads == 0.
/// Defaults to 0 (serial). Not thread-safe to mutate while Networks are
/// being constructed concurrently.
std::uint32_t default_num_threads() noexcept;

/// RAII override of default_num_threads(): routes every Network constructed
/// in scope (including those buried inside pipeline drivers such as
/// core::arb_mis) through the parallel executor. Restores the previous
/// value on destruction.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(std::uint32_t num_threads) noexcept;
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  std::uint32_t previous_;
};

/// Process-wide inbox implementation applied when NetworkOptions::inbox ==
/// InboxImpl::kProcessDefault. Defaults to the arena. Never returns
/// kProcessDefault. Not thread-safe to mutate while Networks are being
/// constructed concurrently.
InboxImpl default_inbox_impl() noexcept;

/// RAII override of default_inbox_impl(): routes every Network constructed
/// in scope (including those buried inside pipeline drivers) through the
/// given inbox implementation — how the differential tests run whole
/// pipelines against the retained reference implementation.
class ScopedInboxImpl {
 public:
  explicit ScopedInboxImpl(InboxImpl impl) noexcept;
  ~ScopedInboxImpl();
  ScopedInboxImpl(const ScopedInboxImpl&) = delete;
  ScopedInboxImpl& operator=(const ScopedInboxImpl&) = delete;

 private:
  InboxImpl previous_;
};

struct RunStats {
  std::uint32_t rounds = 0;           ///< rounds executed (excludes on_start)
  std::uint64_t messages = 0;         ///< total messages delivered
  std::uint64_t payload_bits = 0;     ///< messages * kBitsPerMessage
  std::uint32_t max_edge_load = 0;    ///< max msgs on one directed edge/round
  bool all_halted = false;            ///< every node halted within budget

  /// Accumulates another stage's stats (pipeline composition): rounds add,
  /// loads max, all_halted ANDs (a pipeline halted iff every stage did).
  void absorb(const RunStats& other) noexcept;
};

/// Messages together with their read-k flags, slot for slot:
/// `rng_bearing[i]` is 1 iff `messages[i]` carries its sender's randomness
/// of the round it was sent in. The storage of the reference inboxes, of
/// the arena's overflow side buffers, and of overflow scratch copies.
struct FlaggedInbox {
  std::vector<Message> messages;
  std::vector<std::uint8_t> rng_bearing;

  void push(const Message& msg, bool bearing) {
    messages.push_back(msg);
    rng_bearing.push_back(bearing ? 1 : 0);
  }
  void clear() noexcept {
    messages.clear();
    rng_bearing.clear();
  }
};

/// Per-worker staging area of the parallel round executor. Everything a
/// callback would have written to shared simulator state is buffered here
/// and merged at the round barrier in shard order (see the determinism-
/// merge rule in the header comment).
struct ExecLane {
  struct StagedSend {
    graph::NodeId target;
    Message msg;
    /// Carries the sender's this-round randomness (read-k ledger entry).
    bool rng_bearing;
    /// Inbox copies to deliver (>= 1; dropped messages are never staged).
    std::uint8_t copies;
  };

  /// Sends in call order; senders within a shard ascend, so concatenating
  /// lanes in shard order reproduces the serial send order.
  std::vector<StagedSend> sends;
  std::uint64_t messages = 0;      ///< delivered messages consumed
  std::uint64_t payload_bits = 0;  ///< actual bits consumed (message_bits)
  std::uint64_t rng_draws = 0;     ///< logical draws made in this shard
  std::uint32_t max_edge_load = 0;
  graph::NodeId halts = 0;         ///< nodes newly halted in this shard
  /// Fault events staged by this worker's sends (merged at the barrier so
  /// the injector's ledger stays executor-independent).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  /// Contiguous copy of an overflowing arena inbox (region + side buffer)
  /// for the duration of one callback; unused — and never allocated — on
  /// the fault-free path. Not cleared by reset(): it is transient per
  /// callback and keeps its capacity across rounds.
  FlaggedInbox scratch;
  ModelCheckerLane check;

  void reset() noexcept {
    sends.clear();
    messages = 0;
    payload_bits = 0;
    rng_draws = 0;
    max_edge_load = 0;
    halts = 0;
    fault_drops = 0;
    fault_duplicates = 0;
    check.reset();
  }
};

/// Per-round accounting snapshot, refreshed at every round barrier and
/// readable by RoundObservers (examples/congest_trace prints it).
/// `messages` counts the messages consumed by callbacks this round; fault
/// counters cover faults resolved or injected this round (drops/duplicates
/// are charged to the round the message was *sent* in).
struct RoundDelta {
  std::uint32_t round = 0;
  std::uint64_t messages = 0;
  /// Actual bits consumed this round: sum of message_bits() (tag kind bits
  /// plus significant payload bits) over the consumed messages — NOT
  /// messages * kBitsPerMessage; the nominal full-word charge lives only
  /// in the run-wide RunStats::payload_bits.
  std::uint64_t payload_bits = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  std::uint32_t fault_crashes = 0;
  std::uint32_t fault_recoveries = 0;

  friend bool operator==(const RoundDelta&, const RoundDelta&) = default;
};

class Network {
 public:
  Network(graph::GraphView g, std::uint64_t seed,
          NetworkOptions options = {});

  graph::GraphView graph() const noexcept { return graph_; }
  std::uint32_t round() const noexcept { return round_; }
  bool halted(graph::NodeId v) const noexcept { return halted_[v] != 0; }
  graph::NodeId num_halted() const noexcept { return num_halted_; }
  /// Resolved worker count (0 = serial executor).
  std::uint32_t num_threads() const noexcept { return num_threads_; }
  /// True when the flat message arena backs the inboxes (the default);
  /// false selects the retained vector-inbox reference implementation.
  bool uses_arena() const noexcept { return use_arena_; }
  /// Total Message slots in the arena = number of directed edges (one slot
  /// per (node, port) pair, CSR order). Valid in both inbox modes.
  std::uint64_t arena_slots() const noexcept { return 2 * graph_.num_edges(); }
  /// Logical RNG draws made so far in the current run, summed over nodes.
  /// Deterministic in (graph, seed, algorithm) and executor-independent.
  std::uint64_t total_rng_draws() const noexcept { return rng_draws_; }
  /// Messages staged for delivery next round, network-wide / to one node
  /// (valid at round barriers, e.g. inside a RoundObserver; test hooks).
  std::uint64_t in_flight() const noexcept { return in_flight_next_; }
  std::uint32_t staged_inbox_size(graph::NodeId v) const noexcept {
    return use_arena_
               ? inbox_count_next_[v]
               : static_cast<std::uint32_t>(next_inbox_[v].messages.size());
  }
  /// Staged messages for v that exceeded its per-directed-edge slot
  /// capacity and sit in the overflow side buffer (0 on the normal path).
  std::uint32_t staged_overflow_size(graph::NodeId v) const noexcept {
    const std::uint32_t cap = graph_.degree(v);
    return use_arena_ && inbox_count_next_[v] > cap
               ? inbox_count_next_[v] - cap
               : 0;
  }

  /// Called after every completed round with the round number just
  /// finished; used by audits and traces. May inspect but not mutate.
  /// Under the parallel executor it fires at the round barrier, after the
  /// lane merge, so it always observes a consistent global state.
  using RoundObserver = std::function<void(const Network&, std::uint32_t)>;

  /// Runs `algorithm` until all nodes halt or `max_rounds` rounds complete.
  /// The network resets its per-run state (halts, inboxes, round counter)
  /// at the top of each run; RNG streams continue across runs so that a
  /// pipeline of stages consumes one coherent randomness source.
  RunStats run(Algorithm& algorithm, std::uint32_t max_rounds,
               const RoundObserver& observer = {});

  /// What the model checker observed during the latest run (width series,
  /// read multiplicity k, violations). Budget fields are valid even before
  /// the first run.
  const ModelCheckReport& model_check_report() const noexcept {
    return checker_.report();
  }

  /// Accounting for the most recently completed round (valid inside a
  /// RoundObserver and after run() returns).
  const RoundDelta& last_round() const noexcept { return last_round_; }

 private:
  friend class NodeContext;
  friend class NodeRandom;

  void do_send(ExecLane* lane, graph::NodeId from, graph::NodeId port,
               std::uint32_t tag, std::uint64_t payload);
  void do_halt(ExecLane* lane, graph::NodeId v);
  /// Accounts one logical draw from v's stream, then exposes it.
  util::Rng& draw_rng(ExecLane* lane, graph::NodeId v);
  /// Appends one inbox copy for `target` to next-round storage, with its
  /// read-k flag: an arena slot write on the fast path (side buffer past
  /// capacity), a push_back under the reference implementation. Serial in
  /// both executors (the parallel path reaches here only through the
  /// barrier merge).
  void deliver(graph::NodeId target, const Message& msg, bool rng_bearing);
  /// The inbox being consumed this round with its read-k flags, as
  /// contiguous storage. Arena overflow (fault duplicates / congest-off
  /// runs) is materialized into the caller's scratch buffer; the fast path
  /// is a pair of spans into the arena.
  struct Inbox {
    std::span<const Message> messages;
    std::span<const std::uint8_t> rng_bearing;
  };
  Inbox current_inbox(graph::NodeId v, ExecLane* lane);

  /// Runs one callback phase (on_start when round_ == 0, else on_round)
  /// over all non-halted nodes, serially or on the worker pool.
  void run_phase(Algorithm& algorithm);
  void run_phase_parallel(Algorithm& algorithm);
  /// Invokes the callback of one node (shared by both executors).
  void step_node(Algorithm& algorithm, graph::NodeId v, ExecLane* lane);
  /// Barrier bookkeeping: fills last_round_, flushes the round's fault
  /// drop/duplicate counts to the injector's ledger.
  void flush_round_accounting(std::uint64_t messages_before,
                              RoundFaultEvents events);

  graph::GraphView graph_;
  NetworkOptions options_;
  std::uint64_t seed_ = 0;  ///< base RNG seed (telemetry run_begin events)
  FaultInjector* fault_ = nullptr;  ///< non-owning; nullptr = fault-free
  std::uint32_t num_threads_ = 0;  ///< resolved at construction; 0 = serial
  bool use_arena_ = true;          ///< resolved at construction
  std::vector<util::Rng> rngs_;
  // One byte per node (not vector<bool>): under the parallel executor a
  // node's own halt flag is written while neighbors' flags are read.
  std::vector<std::uint8_t> halted_;
  graph::NodeId num_halted_ = 0;
  std::uint32_t round_ = 0;

  // Message arena: one slot per directed edge in CSR order (node v's inbox
  // region is [edge_offset_[v], edge_offset_[v+1])), double-buffered for
  // the deliver/fill round phases, with a per-slot read-k flag and a
  // per-node fill count. Messages past a node's region capacity — only
  // possible with fault duplicates or enforce_congest off — land in the
  // per-node overflow side buffers, which are sized on the first overflow
  // and whose dirty flags make the common no-overflow round reset O(1).
  std::vector<Message> arena_cur_;
  std::vector<Message> arena_next_;
  std::vector<std::uint8_t> bearing_cur_;
  std::vector<std::uint8_t> bearing_next_;
  std::vector<std::uint32_t> inbox_count_cur_;
  std::vector<std::uint32_t> inbox_count_next_;
  std::vector<FlaggedInbox> overflow_cur_;
  std::vector<FlaggedInbox> overflow_next_;
  bool overflow_cur_dirty_ = false;
  bool overflow_next_dirty_ = false;
  FlaggedInbox scratch_inbox_;        ///< serial-path overflow staging
  std::uint64_t in_flight_next_ = 0;  ///< messages staged for next round

  // Reference implementation (InboxImpl::kReferenceVectors): the pre-arena
  // per-node inbox vectors, kept for differential testing.
  std::vector<FlaggedInbox> inbox_;
  std::vector<FlaggedInbox> next_inbox_;

  // Per-directed-edge load of the current round, one record per slot
  // ((v, port) = edge_offset_[v] + port), epoch-stamped by round to avoid
  // a clear per round: the message count the CONGEST cap checks and the
  // bit count the ModelChecker budgets. Reserved at construction, filled
  // by run().
  struct EdgeLoad {
    std::uint32_t epoch = ~std::uint32_t{0};
    std::uint32_t messages = 0;
    std::uint32_t bits = 0;
  };
  std::span<const std::uint64_t> edge_offset_;  ///< the graph's CSR offsets
  std::vector<EdgeLoad> edge_load_;

  // Parallel executor state (empty in serial mode).
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ExecLane> lanes_;
  std::vector<graph::NodeId> shard_bounds_;

  ModelChecker checker_;
  RunStats stats_;
  RoundDelta last_round_;
  std::uint64_t rng_draws_ = 0;  ///< run-wide logical draws (all nodes)
  // Actual consumed bits of the round in progress (serial executor writes
  // directly; the parallel merge folds the lane counters in here).
  std::uint64_t round_payload_bits_ = 0;
  // Fault drop/duplicate counts of the round in progress (serial executor
  // writes directly; the parallel merge folds the lane counters in here).
  std::uint64_t round_fault_drops_ = 0;
  std::uint64_t round_fault_duplicates_ = 0;
};

}  // namespace arbmis::sim
