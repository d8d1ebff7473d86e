#include "sim/model_check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "obs/recorder.h"
#include "obs/sink.h"
#include "util/log.h"

namespace arbmis::sim {

namespace {

std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return static_cast<std::uint32_t>(std::bit_width(x - 1));
}

}  // namespace

ModelCheckerLane::ModelCheckerLane()
    : active_node(ModelChecker::kNoNode) {}

void ModelCheckerLane::reset() {
  active_node = ModelChecker::kNoNode;
  max_message_bits = 0;
  round_max_message_bits = 0;
  max_edge_bits = 0;
  max_rng_reads = 0;
  any_first_draw = false;
  consumed_origins.clear();
  violations = 0;
  violation_texts.clear();
}

std::string ModelCheckReport::summary() const {
  std::ostringstream out;
  out << "model-check: rounds=" << rounds_observed
      << " budget=" << edge_bit_budget << "b"
      << " max_msg=" << max_message_bits << "b"
      << " max_edge=" << max_edge_bits_per_round << "b"
      << " max_rng_reads=" << max_rng_reads_per_round << " k=" << k
      << " violations=" << violations;
  if (faults.drops > 0 || faults.duplicates > 0 || faults.crashes > 0 ||
      faults.recoveries > 0) {
    out << " faults{drops=" << faults.drops
        << " dups=" << faults.duplicates << " crashes=" << faults.crashes
        << " recoveries=" << faults.recoveries << "}";
  }
  return out.str();
}

ModelChecker::ModelChecker(graph::GraphView g, ModelCheckOptions options,
                           std::uint32_t allowed_messages_per_edge)
    : options_(options) {
  if (!options_.enabled) return;
  const std::uint32_t per_message =
      std::max(options_.min_edge_bits,
               options_.log_n_factor *
                   ceil_log2(static_cast<std::uint64_t>(g.num_nodes()) + 1));
  edge_bit_budget_ =
      per_message * std::max<std::uint32_t>(allowed_messages_per_edge, 1);
  nodes_.resize(g.num_nodes());
  report_.edge_bit_budget = edge_bit_budget_;
}

void ModelChecker::begin_run() {
  if (!options_.enabled) return;
  std::fill(nodes_.begin(), nodes_.end(), NodeLedger{});
  active_node_ = kNoNode;
  report_ = ModelCheckReport{};
  report_.edge_bit_budget = edge_bit_budget_;
}

namespace {

std::string node_name(graph::NodeId v) {
  return v == ModelChecker::kNoNode ? std::string("<none>")
                                    : std::to_string(v);
}

}  // namespace

bool ModelChecker::on_send(ModelCheckerLane* lane, graph::NodeId from,
                           std::uint32_t& edge_bits, std::uint64_t payload,
                           std::uint32_t round) {
  if (!options_.enabled) return false;
  const graph::NodeId active = lane ? lane->active_node : active_node_;
  if (from != active) {
    violation(lane, "out-of-context send: node " + std::to_string(from) +
                        "'s port used while node " + node_name(active) +
                        " was scheduled");
  }
  const auto width = static_cast<std::uint32_t>(
      options_.tag_bits + std::bit_width(payload));
  if (lane) {
    lane->max_message_bits = std::max(lane->max_message_bits, width);
    lane->round_max_message_bits =
        std::max(lane->round_max_message_bits, width);
  } else {
    report_.max_message_bits = std::max(report_.max_message_bits, width);
    if (report_.round_max_message_bits.size() <= round) {
      report_.round_max_message_bits.resize(round + 1, 0);
    }
    report_.round_max_message_bits[round] =
        std::max(report_.round_max_message_bits[round], width);
  }

  // The edge record belongs to the sender, hence to exactly one worker
  // during a parallel phase — safe to update in place either way.
  edge_bits += width;
  if (lane) {
    lane->max_edge_bits = std::max(lane->max_edge_bits, edge_bits);
  } else {
    report_.max_edge_bits_per_round =
        std::max(report_.max_edge_bits_per_round, edge_bits);
  }
  if (edge_bits > edge_bit_budget_) {
    violation(lane, "message budget exceeded: " + std::to_string(edge_bits) +
                        " bits on one edge in round " +
                        std::to_string(round) + " (budget " +
                        std::to_string(edge_bit_budget_) + ")");
  }

  // A message sent after a draw in the same callback carries that round's
  // randomness to its recipient, which reads it once per delivered copy.
  const Stamped& reads = nodes_[from].rng_reads;
  return reads.epoch == round && reads.count > 0;
}

void ModelChecker::count_consumption(graph::NodeId origin,
                                     std::uint32_t draw_round) {
  Stamped& mult = nodes_[origin].mult[draw_round & 1];
  if (mult.epoch != draw_round) return;
  const std::uint32_t m = ++mult.count;
  report_.k = std::max(report_.k, m);
  if (report_.round_k.size() <= draw_round) {
    report_.round_k.resize(draw_round + 1, 0);
  }
  report_.round_k[draw_round] = std::max(report_.round_k[draw_round], m);
}

void ModelChecker::on_consume(ModelCheckerLane* lane,
                              std::span<const Message> inbox,
                              std::span<const std::uint8_t> rng_bearing,
                              std::uint32_t round) {
  if (!options_.enabled) return;
  if (round == 0) return;  // nothing in flight before round 1
  if (lane) {
    // Multiplicity counters are indexed by origin — a neighbor possibly
    // owned by another worker — so the counting is deferred to merge_lane.
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      if (rng_bearing[i] != 0) lane->consumed_origins.push_back(inbox[i].src);
    }
    return;
  }
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    if (rng_bearing[i] != 0) count_consumption(inbox[i].src, round - 1);
  }
}

void ModelChecker::on_rng_read(ModelCheckerLane* lane, graph::NodeId v,
                               std::uint32_t round) {
  if (!options_.enabled) return;
  const graph::NodeId active = lane ? lane->active_node : active_node_;
  if (v != active) {
    violation(lane, "RNG isolation breach: node " + std::to_string(v) +
                        "'s private stream read while node " +
                        node_name(active) + " was scheduled");
  }
  const std::uint32_t reads = ++nodes_[v].rng_reads.at(round);
  if (lane) {
    lane->max_rng_reads = std::max(lane->max_rng_reads, reads);
  } else {
    report_.max_rng_reads_per_round =
        std::max(report_.max_rng_reads_per_round, reads);
  }
  if (reads > options_.max_rng_reads_per_round) {
    violation(lane, "randomness budget exceeded: node " +
                        std::to_string(v) + " drew " +
                        std::to_string(reads) + " times in round " +
                        std::to_string(round) + " (budget " +
                        std::to_string(options_.max_rng_reads_per_round) +
                        ")");
  }
  if (reads == 1) {
    // Fresh per-round randomness: the drawing node is its first reader.
    // The parity ledger slot belongs to v (this worker); only the shared
    // report update is staged in the lane.
    nodes_[v].mult[round & 1] = Stamped{round, 1};
    if (lane) {
      lane->any_first_draw = true;
    } else {
      report_.k = std::max(report_.k, 1u);
      if (report_.round_k.size() <= round) {
        report_.round_k.resize(round + 1, 0);
      }
      report_.round_k[round] = std::max(report_.round_k[round], 1u);
    }
  }
}

void ModelChecker::on_halt(ModelCheckerLane* lane, graph::NodeId v) {
  if (!options_.enabled) return;
  const graph::NodeId active = lane ? lane->active_node : active_node_;
  if (v != active) {
    violation(lane, "out-of-context halt: node " + std::to_string(v) +
                        " halted while node " + node_name(active) +
                        " was scheduled");
  }
}

void ModelChecker::merge_lane(ModelCheckerLane& lane, std::uint32_t round) {
  if (!options_.enabled) {
    lane.reset();
    return;
  }
  report_.max_message_bits =
      std::max(report_.max_message_bits, lane.max_message_bits);
  if (lane.round_max_message_bits > 0) {
    if (report_.round_max_message_bits.size() <= round) {
      report_.round_max_message_bits.resize(round + 1, 0);
    }
    report_.round_max_message_bits[round] = std::max(
        report_.round_max_message_bits[round], lane.round_max_message_bits);
  }
  report_.max_edge_bits_per_round =
      std::max(report_.max_edge_bits_per_round, lane.max_edge_bits);
  report_.max_rng_reads_per_round =
      std::max(report_.max_rng_reads_per_round, lane.max_rng_reads);
  if (lane.any_first_draw) {
    report_.k = std::max(report_.k, 1u);
    if (report_.round_k.size() <= round) {
      report_.round_k.resize(round + 1, 0);
    }
    report_.round_k[round] = std::max(report_.round_k[round], 1u);
  }
  if (round > 0) {
    for (graph::NodeId origin : lane.consumed_origins) {
      count_consumption(origin, round - 1);
    }
  }
  // Deferred violation telemetry: the events fire here, at the serial
  // merge barrier, in lane-fold order — never from worker threads.
  for (const std::string& what : lane.violation_texts) {
    obs::emit(obs::make_event(obs::EventKind::kViolation, round, what));
  }
  if (!lane.violation_texts.empty()) {
    obs::recorder_auto_dump("model_check_violation");
  }
  report_.violations += lane.violations;
  lane.reset();
}

void ModelChecker::record_fault_totals(const FaultTotals& totals) {
  if (!options_.enabled) return;
  report_.faults = totals;
}

void ModelChecker::end_run(std::uint32_t rounds) {
  if (!options_.enabled) return;
  report_.rounds_observed = rounds;
  ARBMIS_LOG(Debug) << report_.summary();
}

void ModelChecker::violation(ModelCheckerLane* lane,
                             const std::string& what) {
  // Fail-fast aborts before the lane merge, so the count goes to whichever
  // ledger survives: the lane when staged, the shared report when serial.
  // Telemetry follows the same split: the serial path emits the kViolation
  // event (and triggers the flight-recorder auto-dump) right here, while
  // the staged path defers both to merge_lane so no event is ever emitted
  // from a worker thread.
  if (lane) {
    ++lane->violations;
    lane->violation_texts.push_back(what);
  } else {
    ++report_.violations;
    obs::emit(obs::make_event(obs::EventKind::kViolation, /*round=*/0,
                              what));
    obs::recorder_auto_dump("model_check_violation");
  }
  ARBMIS_LOG(Error) << "CONGEST model violation: " << what;
  if (options_.fail_fast) {
    throw CongestViolation("CONGEST model violation: " + what);
  }
}

}  // namespace arbmis::sim
