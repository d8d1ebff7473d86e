// Tests for the runtime CONGEST model checker (sim/model_check.h):
// negative tests prove each violation class is actually detected, and the
// read-multiplicity ledger is cross-checked against the declared read_k of
// the paper's event families on a BoundedArbIndependentSet run.
#include <gtest/gtest.h>

#include <optional>

#include "core/bounded_arb.h"
#include "core/params.h"
#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "mis/metivier.h"
#include "readk/family.h"
#include "sim/contract.h"
#include "sim/model_check.h"
#include "sim/network.h"

namespace arbmis::sim {
namespace {

/// Sends one message with an arbitrary payload from node 0, then halts.
class WidePayloadSender : public Algorithm {
 public:
  explicit WidePayloadSender(std::uint64_t payload) : payload_(payload) {}
  std::string_view name() const override { return "wide_payload"; }
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0) ctx.send(0, 1, payload_);
  }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    ctx.halt();
  }

 private:
  std::uint64_t payload_;
};

TEST(ModelCheck, OverWideMessageIsCaught) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.min_edge_bits = 16;
  options.model_check.log_n_factor = 1;
  Network net(g, 1, options);
  // 32 significant payload bits + 8 tag bits = 40 > 16.
  WidePayloadSender algorithm(0xFFFFFFFFULL);
  EXPECT_THROW(net.run(algorithm, 4), CongestViolation);
}

TEST(ModelCheck, OverWideMessageIsCountedWhenNotFailFast) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.min_edge_bits = 16;
  options.model_check.log_n_factor = 1;
  options.model_check.fail_fast = false;
  Network net(g, 1, options);
  WidePayloadSender algorithm(0xFFFFFFFFULL);
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_EQ(net.model_check_report().violations, 1u);
  EXPECT_EQ(net.model_check_report().max_message_bits, 40u);
}

TEST(ModelCheck, NarrowMessageWithinBudgetPasses) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.min_edge_bits = 16;
  options.model_check.log_n_factor = 1;
  Network net(g, 1, options);
  WidePayloadSender algorithm(0x3F);  // 6 + 8 = 14 bits <= 16
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_EQ(net.model_check_report().violations, 0u);
}

/// Stashes node 0's context in on_start and abuses it from node 1's
/// callback: a cross-node state read outside message delivery.
class ContextStasher : public Algorithm {
 public:
  std::string_view name() const override { return "context_stasher"; }
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0) stashed_ = ctx;
  }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    if (ctx.id() == 1 && stashed_) {
      (void)stashed_->rng().next();  // node 1 reads node 0's stream
    }
    ctx.halt();
  }

 private:
  std::optional<NodeContext> stashed_;
};

TEST(ModelCheck, CrossNodeStateReadIsCaught) {
  const graph::Graph g = graph::gen::path(3);
  Network net(g, 1);
  ContextStasher algorithm;
  EXPECT_THROW(net.run(algorithm, 4), CongestViolation);
}

TEST(ModelCheck, OutOfRoundStateReadIsCaught) {
  // Using a stashed context after the run — outside any callback window —
  // is a state access outside message delivery and must be flagged too.
  class Stash : public Algorithm {
   public:
    std::string_view name() const override { return "stash"; }
    void on_start(NodeContext& ctx) override { stashed = ctx; }
    void on_round(NodeContext& ctx, std::span<const Message>) override {
      ctx.halt();
    }
    std::optional<NodeContext> stashed;
  };
  const graph::Graph g = graph::gen::path(2);
  Network net(g, 1);
  Stash algorithm;
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_THROW((void)algorithm.stashed->rng().next(), CongestViolation);
}

TEST(ModelCheck, RandomnessBudgetIsEnforced) {
  class GreedyDrawer : public Algorithm {
   public:
    std::string_view name() const override { return "greedy_drawer"; }
    void on_start(NodeContext& ctx) override {
      (void)ctx.rng().next();
      (void)ctx.rng().next();
      (void)ctx.rng().next();  // third draw busts the default budget of 2
    }
    void on_round(NodeContext& ctx, std::span<const Message>) override {
      ctx.halt();
    }
  };
  const graph::Graph g = graph::gen::path(2);
  Network net(g, 1);
  GreedyDrawer algorithm;
  EXPECT_THROW(net.run(algorithm, 4), CongestViolation);
}

TEST(ModelCheck, DisabledCheckerEnforcesNothing) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.model_check.enabled = false;
  options.model_check.min_edge_bits = 1;
  Network net(g, 1, options);
  WidePayloadSender algorithm(~std::uint64_t{0});
  EXPECT_NO_THROW(net.run(algorithm, 4));
  EXPECT_EQ(net.model_check_report().max_message_bits, 0u);
}

TEST(ModelCheck, DefaultBudgetFloorsAtOneCongestWord) {
  // Small n: the word floor dominates; large n: 8 * ceil(log2(n+1)) does.
  Network small(graph::gen::path(16), 1);
  EXPECT_EQ(small.model_check_report().edge_bit_budget, 72u);
  Network large(graph::gen::path(1000), 1);
  EXPECT_EQ(large.model_check_report().edge_bit_budget, 80u);
}

TEST(ModelCheck, RuntimeChargesMatchCompileTimeContract) {
  // The nominal widths pinned at compile time by src/sim/contract.h are
  // the numbers the runtime checker actually charges: a full CONGEST word
  // costs exactly kNominalMessageBits, an empty payload costs exactly the
  // tag, and the default per-edge budget floors at one full message on any
  // graph small enough for the log-n term to lose. If either side moves
  // without the other, this test (or contract.h's static_asserts) fails.
  const graph::Graph g = graph::gen::path(2);
  {
    Network net(g, 1);
    WidePayloadSender algorithm(~std::uint64_t{0});
    net.run(algorithm, 4);
    EXPECT_EQ(net.model_check_report().max_message_bits,
              contract::kNominalMessageBits);
    EXPECT_EQ(net.model_check_report().edge_bit_budget,
              contract::kNominalMessageBits);
  }
  {
    Network net(g, 1);
    WidePayloadSender algorithm(0);
    net.run(algorithm, 4);
    EXPECT_EQ(net.model_check_report().max_message_bits,
              contract::kNominalTagBits);
  }
  EXPECT_EQ(ModelCheckOptions{}.tag_bits, contract::kNominalTagBits);
  EXPECT_EQ(ModelCheckOptions{}.min_edge_bits, contract::kNominalMessageBits);
}

/// One scale, one iteration, every node competitive: in the single kPrio
/// round all nodes draw and broadcast their priorities, which every
/// neighbor reads in the kResolve round.
core::Params one_iteration_params(const graph::Graph& g) {
  core::Params params;
  params.alpha = 1;
  params.max_degree = g.max_degree();
  params.num_scales = 1;
  params.iterations_per_scale = 1;
  params.rho_factor = 100.0;  // rho_1 >> max degree: everyone competes
  return params;
}

TEST(ModelCheck, ReportKMatchesDeclaredReadKOnCompleteGraph) {
  // K_m with ids oriented small -> large: node m-1 has m-1 parents, so the
  // paper's Event (2) family reads its priority m-1 times plus once by the
  // node itself — read_k == m. On the simulator, the same priority is
  // consumed by all m-1 neighbors plus the drawing node: k == m.
  const graph::NodeId m = 8;
  const graph::Graph g = graph::gen::complete(m);
  std::vector<graph::NodeId> members(m);
  for (graph::NodeId v = 0; v < m; ++v) members[v] = v;
  const readk::ReadKFamily family =
      readk::parent_max_family(graph::id_orientation(g), members);
  ASSERT_EQ(family.read_k(), m);

  const core::Params params = one_iteration_params(g);
  core::BoundedArbIndependentSet algorithm(g, params);
  Network net(g, 7);
  const RunStats stats = net.run(algorithm, params.total_rounds());
  EXPECT_TRUE(stats.all_halted);
  const ModelCheckReport& report = net.model_check_report();
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.k, family.read_k());
  // Algorithm 1 draws exactly one priority per round.
  EXPECT_EQ(report.max_rng_reads_per_round, 1u);
  // Priorities are one CONGEST word: 64 payload bits + 8 tag bits.
  EXPECT_EQ(report.max_message_bits, 72u);
  // The draws happen in the kPrio round (round 1).
  ASSERT_GT(report.round_k.size(), 1u);
  EXPECT_EQ(report.round_k[1], m);
}

TEST(ModelCheck, ReportKMatchesDeclaredReadKOnStar) {
  // Star with the hub as the highest id: every leaf's out-edge points at
  // the hub, whose priority feeds all d leaf indicators plus its own.
  const graph::NodeId leaves = 6;
  graph::Builder b(leaves + 1);
  for (graph::NodeId v = 0; v < leaves; ++v) b.add_edge(v, leaves);
  const graph::Graph g = b.build();
  std::vector<graph::NodeId> members(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) members[v] = v;
  const readk::ReadKFamily family =
      readk::parent_max_family(graph::id_orientation(g), members);
  ASSERT_EQ(family.read_k(), leaves + 1);

  const core::Params params = one_iteration_params(g);
  core::BoundedArbIndependentSet algorithm(g, params);
  Network net(g, 3);
  net.run(algorithm, params.total_rounds());
  EXPECT_EQ(net.model_check_report().k, family.read_k());
  EXPECT_EQ(net.model_check_report().violations, 0u);
}

TEST(ModelCheck, MetivierStaysWithinAllBudgets) {
  // The competition engine under full enforcement on a non-trivial graph:
  // no violations, and the read multiplicity never exceeds Delta + 1 (a
  // priority is read by its drawer and at most all its neighbors).
  util::Rng rng(11);
  const graph::Graph g = graph::gen::gnp(200, 0.05, rng);
  mis::MetivierMis algorithm(g);
  Network net(g, 5);
  const RunStats stats = net.run(algorithm, 1 << 12);
  EXPECT_TRUE(stats.all_halted);
  const ModelCheckReport& report = net.model_check_report();
  EXPECT_EQ(report.violations, 0u);
  EXPECT_GE(report.k, 1u);
  EXPECT_LE(report.k, g.max_degree() + 1);
  EXPECT_LE(report.max_edge_bits_per_round, report.edge_bit_budget);
}

// ---------------------------------------------------------------------------
// Frozen reports: the full ModelCheckReport of fixed runs, pinned so that a
// change to the checker's bookkeeping cannot move what it reports. Every
// run is repeated under executors {serial, 2, 8 workers} x {arena,
// reference} inboxes and must hit the same pin.
// ---------------------------------------------------------------------------

/// The report fields a run can move, with both per-round series folded
/// into one FNV-1a digest (lengths included).
struct ReportPin {
  std::uint32_t k = 0;
  std::uint32_t max_edge_bits_per_round = 0;
  std::uint32_t max_rng_reads_per_round = 0;
  std::uint64_t violations = 0;
  std::uint64_t series = 0;

  friend bool operator==(const ReportPin&, const ReportPin&) = default;
  friend std::ostream& operator<<(std::ostream& out, const ReportPin& p) {
    return out << "{" << p.k << ", " << p.max_edge_bits_per_round << ", "
               << p.max_rng_reads_per_round << ", " << p.violations << ", 0x"
               << std::hex << p.series << std::dec << "ull}";
  }
};

ReportPin pin_of(const ModelCheckReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto* series :
       {&report.round_k, &report.round_max_message_bits}) {
    mix(series->size());
    for (const std::uint32_t x : *series) mix(x);
  }
  return {report.k, report.max_edge_bits_per_round,
          report.max_rng_reads_per_round, report.violations, h};
}

struct ExecConfig {
  std::uint32_t threads;
  InboxImpl inbox;
};

constexpr ExecConfig kPinConfigs[] = {
    {0, InboxImpl::kArena},  {2, InboxImpl::kArena},
    {8, InboxImpl::kArena},  {0, InboxImpl::kReferenceVectors},
    {2, InboxImpl::kReferenceVectors}, {8, InboxImpl::kReferenceVectors},
};

std::string config_label(const ExecConfig& c) {
  return std::string(c.inbox == InboxImpl::kArena ? "arena" : "reference") +
         "/t" + std::to_string(c.threads);
}

/// Runs `make_algorithm()` once per executor config and expects the pin.
/// `duplicates` attaches a fault plan that duplicates (never drops)
/// messages, which pushes recipients' inboxes past the arena capacity.
template <typename MakeAlgorithm>
void expect_report_pinned(const graph::Graph& g, std::uint64_t seed,
                          NetworkOptions options, std::uint32_t max_rounds,
                          bool duplicates, const ReportPin& expected,
                          MakeAlgorithm&& make_algorithm) {
  for (const ExecConfig& config : kPinConfigs) {
    fault::IidAdversary adversary({.duplicate_rate = 0.3});
    fault::FaultPlan plan(g, seed, adversary);
    NetworkOptions run_options = options;
    run_options.num_threads = config.threads;
    run_options.inbox = config.inbox;
    if (duplicates) run_options.fault = &plan;
    Network net(g, seed, run_options);
    auto algorithm = make_algorithm();
    net.run(algorithm, max_rounds);
    EXPECT_EQ(pin_of(net.model_check_report()), expected)
        << config_label(config);
    if (duplicates) {
      EXPECT_GT(plan.totals().duplicates, 0u) << config_label(config);
    }
  }
}

graph::Graph pinned_hubbed_graph() {
  util::Rng rng(101);
  return graph::gen::hubbed_forest_union(2000, 2, 2, rng);
}

graph::Graph pinned_forest_graph() {
  util::Rng rng(103);
  return graph::gen::union_of_random_forests(600, 2, rng);
}

TEST(ModelCheckGolden, BoundedArbOnHubbedForestUnion) {
  const graph::Graph g = pinned_hubbed_graph();
  const core::Params params = core::Params::practical(2, g.max_degree());
  const auto make = [&] {
    return core::BoundedArbIndependentSet(g, params);
  };
  expect_report_pinned(g, 17, {}, params.total_rounds(), false,
                       ReportPin{1001, 72, 1, 0, 0xb4d698fb4aa15ebull}, make);
  expect_report_pinned(g, 17, {}, params.total_rounds(), true,
                       ReportPin{1311, 72, 1, 0, 0x9183d80ff747352full}, make);
}

TEST(ModelCheckGolden, MetivierOnUnionOfRandomForests) {
  const graph::Graph g = pinned_forest_graph();
  const auto make = [&] { return mis::MetivierMis(g); };
  expect_report_pinned(g, 19, {}, 1 << 12, false,
                       ReportPin{12, 72, 1, 0, 0x80f9e2e69df84d2full}, make);
  expect_report_pinned(g, 19, {}, 1 << 12, true,
                       ReportPin{17, 72, 1, 0, 0x2301fdda1f7b154ull}, make);
}

/// For three rounds every node sends a bare message on port 0 *before*
/// drawing (not randomness-bearing), then draws once and broadcasts the
/// draw's low and high 16 bits on every port; node 0 adds the full draw on
/// port 0 in round 0. With enforce_congest off every recipient's inbox
/// overflows its one-slot-per-port arena region, and node 0's extra word
/// busts its per-edge bit budget once per run.
class DoubleBroadcaster : public Algorithm {
 public:
  std::string_view name() const override { return "double_broadcaster"; }
  void on_start(NodeContext& ctx) override { step(ctx); }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    if (ctx.round() >= 3) {
      ctx.halt();
      return;
    }
    step(ctx);
  }

 private:
  static void step(NodeContext& ctx) {
    if (ctx.degree() == 0) return;
    ctx.send(0, 1, ctx.id());
    const std::uint64_t draw = ctx.rng().next();
    ctx.broadcast(2, draw & 0xFFFF);
    ctx.broadcast(2, draw >> 48);
    if (ctx.id() == 0 && ctx.round() == 0) ctx.send(0, 2, draw);
  }
};

TEST(ModelCheckGolden, CongestOffOverflowRuns) {
  NetworkOptions options;
  options.enforce_congest = false;
  options.model_check.fail_fast = false;
  // One edge's budget is at least 80 bits on these graphs; the three
  // regular messages carry at most 19 + 24 + 24 bits, so node 0's
  // full-word fourth message on port 0 in round 0 is the only excess.
  const auto make = [] { return DoubleBroadcaster(); };
  expect_report_pinned(pinned_hubbed_graph(), 23, options, 8, false,
                       ReportPin{2001, 123, 1, 1, 0xddf66ab44c98e9e2ull}, make);
  expect_report_pinned(pinned_forest_graph(), 29, options, 8, false,
                       ReportPin{23, 120, 1, 1, 0x63ea5d13706136b6ull}, make);
  expect_report_pinned(pinned_forest_graph(), 29, options, 8, true,
                       ReportPin{29, 120, 1, 1, 0x5c286e8431ab01bcull}, make);
}

/// Every node broadcasts first and draws afterwards, so none of its
/// messages carries the round's randomness: the only reader of each draw
/// is the drawing node itself.
class SendThenDraw : public Algorithm {
 public:
  std::string_view name() const override { return "send_then_draw"; }
  void on_start(NodeContext& ctx) override {
    ctx.broadcast(1, 7);
    (void)ctx.rng().next();
  }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    ctx.halt();
  }
};

TEST(ModelCheckGolden, MessagesSentBeforeTheDrawAreNotCounted) {
  const graph::Graph g = pinned_hubbed_graph();
  const auto make = [] { return SendThenDraw(); };
  const ReportPin self_read_only{1, 11, 1, 0, 0x33997e68cd31b6afull};
  expect_report_pinned(g, 31, {}, 4, false, self_read_only, make);
  expect_report_pinned(g, 31, {}, 4, true, self_read_only, make);
}

TEST(ModelCheckReport, SummaryMentionsKeyFields) {
  ModelCheckReport report;
  report.k = 7;
  report.violations = 2;
  const std::string s = report.summary();
  EXPECT_NE(s.find("k=7"), std::string::npos);
  EXPECT_NE(s.find("violations=2"), std::string::npos);
}

}  // namespace
}  // namespace arbmis::sim
