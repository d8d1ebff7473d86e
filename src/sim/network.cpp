#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sim/contract.h"  // static_asserts run in every build via this TU

namespace arbmis::sim {

namespace {

// Process-wide default applied when NetworkOptions::num_threads == 0; see
// ScopedNumThreads. Plain (non-atomic) on purpose: overrides are scoped to
// single-threaded setup code, never to a running phase.
std::uint32_t g_default_num_threads = 0;

// Process-wide default applied when NetworkOptions::inbox ==
// InboxImpl::kProcessDefault; see ScopedInboxImpl. Same mutation contract
// as g_default_num_threads.
InboxImpl g_default_inbox_impl = InboxImpl::kArena;

}  // namespace

std::uint32_t default_num_threads() noexcept { return g_default_num_threads; }

ScopedNumThreads::ScopedNumThreads(std::uint32_t num_threads) noexcept
    : previous_(g_default_num_threads) {
  g_default_num_threads = num_threads;
}

ScopedNumThreads::~ScopedNumThreads() {
  g_default_num_threads = previous_;
}

InboxImpl default_inbox_impl() noexcept { return g_default_inbox_impl; }

ScopedInboxImpl::ScopedInboxImpl(InboxImpl impl) noexcept
    : previous_(g_default_inbox_impl) {
  g_default_inbox_impl =
      impl == InboxImpl::kProcessDefault ? InboxImpl::kArena : impl;
}

ScopedInboxImpl::~ScopedInboxImpl() {
  g_default_inbox_impl = previous_;
}

void RunStats::absorb(const RunStats& other) noexcept {
  rounds += other.rounds;
  messages += other.messages;
  payload_bits += other.payload_bits;
  max_edge_load = std::max(max_edge_load, other.max_edge_load);
  all_halted = all_halted && other.all_halted;
}

Network::Network(graph::GraphView g, std::uint64_t seed,
                 NetworkOptions options)
    : graph_(g),
      options_(options),
      seed_(seed),
      fault_(options.fault),
      num_threads_(options.num_threads != 0 ? options.num_threads
                                            : default_num_threads()),
      use_arena_((options.inbox == InboxImpl::kProcessDefault
                      ? default_inbox_impl()
                      : options.inbox) != InboxImpl::kReferenceVectors),
      edge_offset_(g.offsets()),
      checker_(g, options.model_check,
               options.max_messages_per_edge_per_round) {
  const graph::NodeId n = g.num_nodes();
  rngs_.reserve(n);
  const util::Rng base(seed);
  for (graph::NodeId v = 0; v < n; ++v) rngs_.push_back(base.child(v));
  halted_.assign(n, 0);
  const std::uint64_t slots = arena_slots();
  edge_load_.reserve(slots);
  if (use_arena_) {
    // All storage a run can touch on the fault-free path, sized once: one
    // Message slot and one flag per directed edge, double-buffered, plus
    // fill counts.
    arena_cur_.resize(slots);
    arena_next_.resize(slots);
    bearing_cur_.resize(slots);
    bearing_next_.resize(slots);
    inbox_count_cur_.assign(n, 0);
    inbox_count_next_.assign(n, 0);
  } else {
    inbox_.resize(n);
    next_inbox_.resize(n);
  }
  if (num_threads_ > 0) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
    lanes_.resize(num_threads_);
    shard_bounds_.resize(static_cast<std::size_t>(num_threads_) + 1, 0);
  }
}

void Network::deliver(graph::NodeId target, const Message& msg,
                      bool rng_bearing) {
  ++in_flight_next_;
  if (!use_arena_) {
    next_inbox_[target].push(msg, rng_bearing);
    return;
  }
  std::uint32_t& count = inbox_count_next_[target];
  const std::uint64_t base = edge_offset_[target];
  if (count < edge_offset_[target + 1] - base) [[likely]] {
    arena_next_[base + count] = msg;
    bearing_next_[base + count] = rng_bearing ? 1 : 0;
  } else {
    // Past one-per-directed-edge capacity: fault duplicates, or a run
    // with enforce_congest off. Order is preserved — the side buffer
    // holds exactly the suffix of the node's delivery sequence.
    if (overflow_next_.empty()) {
      overflow_cur_.resize(graph_.num_nodes());
      overflow_next_.resize(graph_.num_nodes());
    }
    overflow_next_[target].push(msg, rng_bearing);
    overflow_next_dirty_ = true;
  }
  ++count;
}

Network::Inbox Network::current_inbox(graph::NodeId v, ExecLane* lane) {
  if (!use_arena_) return {inbox_[v].messages, inbox_[v].rng_bearing};
  const std::uint32_t count = inbox_count_cur_[v];
  const std::uint64_t base = edge_offset_[v];
  const std::uint64_t cap = edge_offset_[v + 1] - base;
  if (count <= cap) [[likely]] {
    return {{arena_cur_.data() + base, count},
            {bearing_cur_.data() + base, count}};
  }
  // Overflowed inbox: splice region + side buffer into contiguous scratch
  // (per-worker under the parallel executor; the callback only needs the
  // spans for its own duration).
  FlaggedInbox& scratch = lane ? lane->scratch : scratch_inbox_;
  const FlaggedInbox& box = overflow_cur_[v];
  scratch.messages.assign(arena_cur_.data() + base,
                          arena_cur_.data() + base + cap);
  scratch.messages.insert(scratch.messages.end(), box.messages.begin(),
                          box.messages.end());
  scratch.rng_bearing.assign(bearing_cur_.data() + base,
                             bearing_cur_.data() + base + cap);
  scratch.rng_bearing.insert(scratch.rng_bearing.end(),
                             box.rng_bearing.begin(), box.rng_bearing.end());
  return {scratch.messages, scratch.rng_bearing};
}

void Network::do_send(ExecLane* lane, graph::NodeId from, graph::NodeId port,
                      std::uint32_t tag, std::uint64_t payload) {
  const auto nbrs = graph_.neighbors(from);
  if (port >= nbrs.size()) {
    throw std::logic_error("send: port out of range");
  }
  // The (from, port) load record is owned by the sender, hence by exactly
  // one worker — updated in place under both executors.
  const std::uint64_t slot = edge_offset_[from] + port;
  EdgeLoad& edge = edge_load_[slot];
  if (edge.epoch != round_) edge = EdgeLoad{round_, 0, 0};
  const std::uint32_t load = ++edge.messages;
  if (options_.enforce_congest &&
      load > options_.max_messages_per_edge_per_round) {
    throw std::logic_error(
        "CONGEST violation: more than the per-edge message budget sent on "
        "one edge in one round");
  }
  const graph::NodeId target = nbrs[port];
  // Fault seam: the fate of a message is a pure function of (plan, edge
  // slot, round), so workers can decide it independently and determinism
  // across thread counts is preserved. Messages to a down node are dropped
  // outright; the sender paid its CONGEST budget either way.
  std::uint8_t copies = 1;
  if (fault_ != nullptr) {
    copies = fault_->is_down(target)
                 ? std::uint8_t{0}
                 : fault_->on_message(from, target, slot, round_).copies;
    if (copies == 0) {
      (lane ? lane->fault_drops : round_fault_drops_) += 1;
    } else if (copies > 1) {
      (lane ? lane->fault_duplicates : round_fault_duplicates_) +=
          std::uint64_t{copies} - 1;
    }
  }
  const bool rng_bearing = checker_.on_send(
      lane ? &lane->check : nullptr, from, edge.bits, payload, round_);
  if (lane) {
    lane->max_edge_load = std::max(lane->max_edge_load, load);
    if (copies > 0) {
      lane->sends.push_back(
          ExecLane::StagedSend{target, Message{from, tag, payload},
                               rng_bearing, copies});
    }
  } else {
    stats_.max_edge_load = std::max(stats_.max_edge_load, load);
    for (std::uint8_t c = 0; c < copies; ++c) {
      deliver(target, Message{from, tag, payload}, rng_bearing);
    }
  }
}

void Network::do_halt(ExecLane* lane, graph::NodeId v) {
  checker_.on_halt(lane ? &lane->check : nullptr, v);
  if (halted_[v] == 0) {
    halted_[v] = 1;  // own-node write; num_halted_ is shared, so defer it
    if (lane) {
      ++lane->halts;
    } else {
      ++num_halted_;
    }
  }
}

util::Rng& Network::draw_rng(ExecLane* lane, graph::NodeId v) {
  checker_.on_rng_read(lane ? &lane->check : nullptr, v, round_);
  ++(lane ? lane->rng_draws : rng_draws_);
  return rngs_[v];
}

void Network::step_node(Algorithm& algorithm, graph::NodeId v,
                        ExecLane* lane) {
  NodeContext ctx(*this, v, lane);
  ModelCheckerLane* const check = lane ? &lane->check : nullptr;
  checker_.begin_callback(check, v);
  if (round_ == 0) {
    algorithm.on_start(ctx);
  } else {
    const Inbox inbox = current_inbox(v, lane);
    checker_.on_consume(check, inbox.messages, inbox.rng_bearing, round_);
    algorithm.on_round(ctx, inbox.messages);
    // Actual-width accounting (RoundDelta::payload_bits and the
    // sim.message_bits histogram), resolved at the round barrier.
    WidthCounts& widths = lane ? lane->widths : round_widths_;
    for (const Message& m : inbox.messages) ++widths[message_bits(m)];
    (lane ? lane->messages : stats_.messages) += inbox.messages.size();
  }
  checker_.end_callback(check);
}

void Network::run_phase(Algorithm& algorithm) {
  if (num_threads_ == 0) {
    const graph::NodeId n = graph_.num_nodes();
    for (graph::NodeId v = 0; v < n; ++v) {
      if (halted_[v] != 0) continue;
      if (fault_ != nullptr && fault_->is_down(v)) continue;
      step_node(algorithm, v, nullptr);
    }
    return;
  }
  run_phase_parallel(algorithm);
}

void Network::run_phase_parallel(Algorithm& algorithm) {
  const graph::NodeId n = graph_.num_nodes();
  const std::uint32_t t = num_threads_;
  // Shard non-halted nodes into contiguous ranges of near-equal alive
  // count: shard s owns alive indices [alive*s/t, alive*(s+1)/t).
  const std::uint64_t alive = n - num_halted_;
  std::fill(shard_bounds_.begin(), shard_bounds_.end(), n);
  shard_bounds_[0] = 0;
  std::uint64_t alive_seen = 0;
  std::uint32_t s = 1;
  for (graph::NodeId v = 0; v < n && s < t; ++v) {
    while (s < t && alive_seen == alive * s / t) {
      shard_bounds_[s] = v;
      ++s;
    }
    if (halted_[v] == 0) ++alive_seen;
  }
  // Any bounds not reached stay at n (pre-filled): trailing empty shards.

  pool_->run([&](std::uint32_t w) {
    obs::set_thread_lane(w + 1);
    OBS_SCOPE("net.shard");
    ExecLane& lane = lanes_[w];
    const graph::NodeId begin = shard_bounds_[w];
    const graph::NodeId end = shard_bounds_[w + 1];
    for (graph::NodeId v = begin; v < end; ++v) {
      if (halted_[v] != 0) continue;
      // The down set is frozen at the barrier, so workers read a
      // consistent snapshot (no mid-phase crashes).
      if (fault_ != nullptr && fault_->is_down(v)) continue;
      step_node(algorithm, v, &lane);
    }
  });

  // Barrier merge, in shard (= ascending node-id) order: replaying the
  // lane buffers in this order reproduces the serial executor's inbox
  // ordering, stats, and checker ledger byte-for-byte.
  OBS_SCOPE("net.merge");
  const bool emit_lanes = obs::telemetry_attached();
  std::uint32_t lane_index = 0;
  for (ExecLane& lane : lanes_) {
    if (emit_lanes) {
      // kExec category: legitimately varies by thread count, excluded by
      // the default sink configuration (see obs/events.h).
      obs::emit(obs::make_event(obs::EventKind::kLaneMerge, round_, {},
                                lane_index, lane.sends.size(), lane.messages,
                                lane.halts));
    }
    ++lane_index;
    for (const ExecLane::StagedSend& staged : lane.sends) {
      // copies > 1 = network duplication: each delivered copy is one inbox
      // entry and (if randomness-bearing) one read-k ledger entry.
      for (std::uint8_t c = 0; c < staged.copies; ++c) {
        deliver(staged.target, staged.msg, staged.rng_bearing);
      }
    }
    stats_.messages += lane.messages;
    for (std::size_t w = 0; w < round_widths_.size(); ++w) {
      round_widths_[w] += lane.widths[w];
    }
    stats_.max_edge_load = std::max(stats_.max_edge_load, lane.max_edge_load);
    num_halted_ += lane.halts;
    rng_draws_ += lane.rng_draws;
    round_fault_drops_ += lane.fault_drops;
    round_fault_duplicates_ += lane.fault_duplicates;
    checker_.merge_lane(lane.check, round_);
    lane.reset();
  }
}

RunStats Network::run(Algorithm& algorithm, std::uint32_t max_rounds,
                      const RoundObserver& observer) {
  OBS_SCOPE("net.run");
  // Child span: silent outside an open request span (obs/span.h), so only
  // the serving path gains the bracket around each simulator run.
  const obs::ScopedChildSpan run_span("sim.run", graph_.num_nodes());
  const graph::NodeId n = graph_.num_nodes();
  if (obs::telemetry_attached()) {
    obs::emit(obs::make_event(obs::EventKind::kRunBegin, /*round=*/0,
                              algorithm.name(), n, graph_.num_edges(), seed_,
                              max_rounds, options_.enforce_congest ? 1 : 0));
  }
  // Reset per-run state; RNG streams intentionally persist across runs.
  std::fill(halted_.begin(), halted_.end(), 0);
  num_halted_ = 0;
  round_ = 0;
  stats_ = RunStats{};
  if (use_arena_) {
    // Occupancy counts are the arena's only per-run state; slot contents
    // are dead once the counts read zero.
    std::fill(inbox_count_cur_.begin(), inbox_count_cur_.end(), 0);
    std::fill(inbox_count_next_.begin(), inbox_count_next_.end(), 0);
    if (overflow_cur_dirty_) {
      for (auto& box : overflow_cur_) box.clear();
      overflow_cur_dirty_ = false;
    }
    if (overflow_next_dirty_) {
      for (auto& box : overflow_next_) box.clear();
      overflow_next_dirty_ = false;
    }
  } else {
    for (auto& box : inbox_) box.clear();
    for (auto& box : next_inbox_) box.clear();
  }
  in_flight_next_ = 0;
  rng_draws_ = 0;
  edge_load_.assign(arena_slots(), EdgeLoad{});
  last_round_ = RoundDelta{};
  round_fault_drops_ = 0;
  round_fault_duplicates_ = 0;
  round_widths_.fill(0);
  checker_.begin_run();

  RoundFaultEvents events{};
  if (fault_ != nullptr) {
    fault_->begin_run();
    // Crash/recovery events resolve serially at the barrier, before any
    // callback of the round runs, so the down set is frozen per phase.
    events = fault_->begin_round(0, halted_);
  }
  std::uint64_t messages_before = stats_.messages;
  run_phase(algorithm);  // round 0: on_start
  flush_round_accounting(messages_before, events);

  while (round_ < max_rounds) {
    OBS_SCOPE("net.round");
    if (num_halted_ >= n) break;
    // With permanent crashes the halted count can never reach n: stop once
    // every node is either halted or down and no recovery is scheduled.
    if (fault_ != nullptr && !fault_->recovery_pending() &&
        num_halted_ + fault_->num_down() >= n) {
      break;
    }
    if (algorithm.is_reactive()) {
      // Quiescence cut: nothing in flight means every further round is a
      // global no-op for a reactive algorithm. The staged-message counter
      // makes this O(1) (it counts exactly the entries the reference
      // implementation's per-box scan would find).
      if (in_flight_next_ == 0) break;
    }
    // Deliver: next becomes current.
    if (use_arena_) {
      std::swap(arena_cur_, arena_next_);
      std::swap(bearing_cur_, bearing_next_);
      std::swap(inbox_count_cur_, inbox_count_next_);
      std::fill(inbox_count_next_.begin(), inbox_count_next_.end(), 0);
      std::swap(overflow_cur_, overflow_next_);
      std::swap(overflow_cur_dirty_, overflow_next_dirty_);
      if (overflow_next_dirty_) {
        for (auto& box : overflow_next_) box.clear();
        overflow_next_dirty_ = false;
      }
    } else {
      std::swap(inbox_, next_inbox_);
      for (auto& box : next_inbox_) box.clear();
    }
    in_flight_next_ = 0;
    ++round_;
    events = RoundFaultEvents{};
    if (fault_ != nullptr) events = fault_->begin_round(round_, halted_);
    messages_before = stats_.messages;
    run_phase(algorithm);
    ++stats_.rounds;
    flush_round_accounting(messages_before, events);
    if (observer) observer(*this, round_);
  }
  stats_.payload_bits = stats_.messages * kBitsPerMessage;
  stats_.all_halted = (num_halted_ == n);
  if (fault_ != nullptr) checker_.record_fault_totals(fault_->totals());
  checker_.end_run(stats_.rounds);
  if (obs::telemetry_attached()) {
    obs::emit(obs::make_event(obs::EventKind::kRunEnd, round_, {},
                              stats_.rounds, stats_.messages,
                              stats_.payload_bits, stats_.max_edge_load,
                              stats_.all_halted ? 1 : 0, rng_draws_));
    if (checker_.enabled()) {
      const ModelCheckReport& report = checker_.report();
      obs::emit(obs::make_event(
          obs::EventKind::kModelCheck, round_, {}, report.k,
          report.max_message_bits, report.max_edge_bits_per_round,
          report.max_rng_reads_per_round, report.violations,
          report.edge_bit_budget));
    }
  }
  if (obs::Registry* const reg = obs::registry()) {
    reg->add("sim.runs");
    reg->add("sim.rounds", stats_.rounds);
    reg->add("sim.rng_draws", rng_draws_);
    reg->set("sim.max_edge_load", stats_.max_edge_load);
    if (checker_.enabled()) {
      reg->set("sim.model.k", checker_.report().k);
      reg->add("sim.model.violations", checker_.report().violations);
    }
  }
  return stats_;
}

void Network::flush_round_accounting(std::uint64_t messages_before,
                                     RoundFaultEvents events) {
  last_round_.round = round_;
  last_round_.messages = stats_.messages - messages_before;
  last_round_.payload_bits = 0;
  for (std::size_t w = 0; w < round_widths_.size(); ++w) {
    last_round_.payload_bits += w * round_widths_[w];
  }
  last_round_.fault_drops = round_fault_drops_;
  last_round_.fault_duplicates = round_fault_duplicates_;
  last_round_.fault_crashes = events.crashes;
  last_round_.fault_recoveries = events.recoveries;
  if (fault_ != nullptr) {
    fault_->account(round_, round_fault_drops_, round_fault_duplicates_);
  }
  if (obs::telemetry_attached()) {
    const ModelCheckReport& report = checker_.report();
    // The per-round checker series are lazily sized; a round with no sends
    // (or a disabled checker) may not have slots yet.
    const std::uint32_t width_now =
        round_ < report.round_max_message_bits.size()
            ? report.round_max_message_bits[round_]
            : 0;
    // The read-k ledger of a round's draws completes one round later, when
    // neighbors consume them — so report the *previous* round's final k.
    const std::uint32_t k_prev =
        round_ >= 1 && round_ - 1 < report.round_k.size()
            ? report.round_k[round_ - 1]
            : 0;
    obs::emit(obs::make_event(obs::EventKind::kRound, round_, {}, num_halted_,
                              last_round_.messages, last_round_.payload_bits,
                              in_flight_next_, rng_draws_, width_now,
                              k_prev));
    if (fault_ != nullptr) {
      obs::emit(obs::make_event(obs::EventKind::kFaultRound, round_, {},
                                last_round_.fault_drops,
                                last_round_.fault_duplicates,
                                last_round_.fault_crashes,
                                last_round_.fault_recoveries));
    }
  }
  if (obs::Registry* const reg = obs::registry()) {
    reg->add("sim.messages", last_round_.messages);
    reg->add("sim.payload_bits", last_round_.payload_bits);
    reg->observe_counts("sim.message_bits", round_widths_);
    if (fault_ != nullptr) {
      reg->add("sim.fault.drops", last_round_.fault_drops);
      reg->add("sim.fault.duplicates", last_round_.fault_duplicates);
      reg->add("sim.fault.crashes", last_round_.fault_crashes);
      reg->add("sim.fault.recoveries", last_round_.fault_recoveries);
    }
    reg->snapshot_round(round_);
  }
  round_fault_drops_ = 0;
  round_fault_duplicates_ = 0;
  round_widths_.fill(0);
}

graph::NodeId NodeContext::degree() const noexcept {
  return net_->graph_.degree(id_);
}

std::span<const graph::NodeId> NodeContext::neighbors() const noexcept {
  return net_->graph_.neighbors(id_);
}

std::uint32_t NodeContext::round() const noexcept { return net_->round_; }

graph::NodeId NodeContext::network_size() const noexcept {
  return net_->graph_.num_nodes();
}

void NodeContext::send(graph::NodeId port, std::uint32_t tag,
                       std::uint64_t payload) {
  net_->do_send(lane_, id_, port, tag, payload);
}

void NodeContext::broadcast(std::uint32_t tag, std::uint64_t payload) {
  const auto deg = degree();
  for (graph::NodeId port = 0; port < deg; ++port) send(port, tag, payload);
}

void NodeContext::halt() { net_->do_halt(lane_, id_); }

std::uint64_t NodeRandom::next() {
  return net_->draw_rng(lane_, id_).next();
}

double NodeRandom::uniform01() {
  return net_->draw_rng(lane_, id_).uniform01();
}

std::uint64_t NodeRandom::below(std::uint64_t bound) {
  return net_->draw_rng(lane_, id_).below(bound);
}

std::int64_t NodeRandom::range(std::int64_t lo, std::int64_t hi) {
  return net_->draw_rng(lane_, id_).range(lo, hi);
}

bool NodeRandom::bernoulli(double p) {
  return net_->draw_rng(lane_, id_).bernoulli(p);
}

}  // namespace arbmis::sim
