// Tests for the CONGEST simulator: delivery timing, halting, CONGEST
// enforcement, determinism, and accounting.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "graph/generators.h"
#include "sim/network.h"

namespace arbmis::sim {
namespace {

/// Floods a counter: each node broadcasts its round number every round and
/// halts after `rounds_to_run` rounds, recording everything it heard.
class FloodAlgorithm : public Algorithm {
 public:
  explicit FloodAlgorithm(graph::NodeId n, std::uint32_t rounds_to_run)
      : rounds_to_run_(rounds_to_run), received_(n) {}

  std::string_view name() const override { return "flood"; }

  void on_start(NodeContext& ctx) override { ctx.broadcast(1, 0); }

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) received_[ctx.id()].push_back(m);
    if (ctx.round() >= rounds_to_run_) {
      ctx.halt();
      return;
    }
    ctx.broadcast(1, ctx.round());
  }

  std::uint32_t rounds_to_run_;
  std::vector<std::vector<Message>> received_;
};

TEST(Network, DeliversToNeighborsNextRound) {
  const graph::Graph g = graph::gen::path(3);
  Network net(g, 1);
  FloodAlgorithm algorithm(3, 1);
  const RunStats stats = net.run(algorithm, 10);
  EXPECT_TRUE(stats.all_halted);
  EXPECT_EQ(stats.rounds, 1u);
  // Node 1 hears both neighbors' round-0 broadcasts; ends hear one each.
  EXPECT_EQ(algorithm.received_[1].size(), 2u);
  EXPECT_EQ(algorithm.received_[0].size(), 1u);
  EXPECT_EQ(algorithm.received_[0][0].src, 1u);
}

TEST(Network, MessageCountsAccumulate) {
  const graph::Graph g = graph::gen::cycle(4);
  Network net(g, 1);
  FloodAlgorithm algorithm(4, 3);
  const RunStats stats = net.run(algorithm, 10);
  EXPECT_EQ(stats.rounds, 3u);
  // Rounds 1..3 each deliver 8 messages (2 per node).
  EXPECT_EQ(stats.messages, 24u);
  EXPECT_EQ(stats.payload_bits, 24u * kBitsPerMessage);
  EXPECT_EQ(stats.max_edge_load, 1u);
}

/// Sends two messages down the same port in one round.
class CongestViolator : public Algorithm {
 public:
  std::string_view name() const override { return "violator"; }
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0 && ctx.degree() > 0) {
      ctx.send(0, 1, 1);
      ctx.send(0, 1, 2);
    }
  }
  void on_round(NodeContext& ctx, std::span<const Message>) override {
    ctx.halt();
  }
};

TEST(Network, EnforcesCongestBudget) {
  const graph::Graph g = graph::gen::path(2);
  Network net(g, 1);
  CongestViolator algorithm;
  EXPECT_THROW(net.run(algorithm, 4), std::logic_error);
}

TEST(Network, CongestBudgetCanBeRelaxed) {
  const graph::Graph g = graph::gen::path(2);
  NetworkOptions options;
  options.max_messages_per_edge_per_round = 2;
  Network net(g, 1, options);
  CongestViolator algorithm;
  RunStats stats;
  EXPECT_NO_THROW(stats = net.run(algorithm, 4));
  EXPECT_EQ(stats.max_edge_load, 2u);
}

TEST(Network, PortOutOfRangeThrows) {
  class BadPort : public Algorithm {
   public:
    std::string_view name() const override { return "bad_port"; }
    void on_start(NodeContext& ctx) override { ctx.send(5, 1, 0); }
    void on_round(NodeContext& ctx, std::span<const Message>) override {
      ctx.halt();
    }
  };
  const graph::Graph g = graph::gen::path(2);
  Network net(g, 1);
  BadPort algorithm;
  EXPECT_THROW(net.run(algorithm, 2), std::logic_error);
}

/// Each node draws one random number at start and reports it.
class RngProbe : public Algorithm {
 public:
  explicit RngProbe(graph::NodeId n) : draws(n) {}
  std::string_view name() const override { return "rng_probe"; }
  void on_start(NodeContext& ctx) override {
    draws[ctx.id()] = ctx.rng().next();
    ctx.halt();
  }
  void on_round(NodeContext&, std::span<const Message>) override {}
  std::vector<std::uint64_t> draws;
};

TEST(Network, RngDeterministicPerSeedAndNode) {
  const graph::Graph g = graph::gen::cycle(8);
  RngProbe a(8), b(8), c(8);
  Network(g, 99).run(a, 1);
  Network(g, 99).run(b, 1);
  Network(g, 100).run(c, 1);
  EXPECT_EQ(a.draws, b.draws);
  EXPECT_NE(a.draws, c.draws);
  // Distinct nodes get distinct streams.
  for (graph::NodeId v = 1; v < 8; ++v) EXPECT_NE(a.draws[0], a.draws[v]);
}

TEST(Network, RoundBudgetStopsRun) {
  class Forever : public Algorithm {
   public:
    std::string_view name() const override { return "forever"; }
    void on_start(NodeContext&) override {}
    void on_round(NodeContext&, std::span<const Message>) override {}
  };
  const graph::Graph g = graph::gen::path(3);
  Network net(g, 1);
  Forever algorithm;
  const RunStats stats = net.run(algorithm, 5);
  EXPECT_FALSE(stats.all_halted);
  EXPECT_EQ(stats.rounds, 5u);
}

TEST(Network, HaltedNodesReceiveNothing) {
  class HaltEarly : public Algorithm {
   public:
    explicit HaltEarly(graph::NodeId n) : rounds_seen(n, 0) {}
    std::string_view name() const override { return "halt_early"; }
    void on_start(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.halt();
      ctx.broadcast(1, 0);
    }
    void on_round(NodeContext& ctx, std::span<const Message>) override {
      ++rounds_seen[ctx.id()];
      if (ctx.round() >= 2) ctx.halt();
      ctx.broadcast(1, 0);
    }
    std::vector<int> rounds_seen;
  };
  const graph::Graph g = graph::gen::path(3);
  Network net(g, 1);
  HaltEarly algorithm(3);
  net.run(algorithm, 10);
  EXPECT_EQ(algorithm.rounds_seen[0], 0);
  EXPECT_EQ(algorithm.rounds_seen[1], 2);
}

TEST(Network, RunResetsStateBetweenRuns) {
  const graph::Graph g = graph::gen::cycle(5);
  Network net(g, 7);
  FloodAlgorithm first(5, 2);
  const RunStats s1 = net.run(first, 10);
  FloodAlgorithm second(5, 2);
  const RunStats s2 = net.run(second, 10);
  EXPECT_TRUE(s1.all_halted);
  EXPECT_TRUE(s2.all_halted);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages, s2.messages);
}

TEST(Network, ObserverSeesEveryRound) {
  const graph::Graph g = graph::gen::path(4);
  Network net(g, 3);
  FloodAlgorithm algorithm(4, 3);
  std::vector<std::uint32_t> rounds;
  net.run(algorithm, 10, [&rounds](const Network&, std::uint32_t round) {
    rounds.push_back(round);
  });
  EXPECT_EQ(rounds, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(Trace, RecordsHaltProgress) {
  // A RoundObserver sees the cumulative halted count at every barrier:
  // path(4) under FloodAlgorithm(4, 3) halts all 4 nodes in round 3 and
  // none before.
  const graph::Graph g = graph::gen::path(4);
  Network net(g, 3);
  FloodAlgorithm algorithm(4, 3);
  std::vector<graph::NodeId> halted;
  net.run(algorithm, 10, [&halted](const Network& network, std::uint32_t) {
    halted.push_back(network.num_halted());
  });
  EXPECT_EQ(halted, (std::vector<graph::NodeId>{0, 0, 4}));
}

TEST(Trace, RecordsPerRoundMessagesAndPayload) {
  // On cycle(4) every node broadcasts each round, so rounds 1..3 each
  // deliver exactly 8 messages. last_round() must carry the per-round
  // message and payload deltas (not cumulative totals), and all fault
  // counters must stay zero on a fault-free run.
  const graph::Graph g = graph::gen::cycle(4);
  Network net(g, 1);
  FloodAlgorithm algorithm(4, 3);
  std::vector<RoundDelta> deltas;
  const RunStats stats = net.run(
      algorithm, 10, [&deltas](const Network& network, std::uint32_t round) {
        EXPECT_EQ(network.last_round().round, round);
        deltas.push_back(network.last_round());
      });
  ASSERT_EQ(deltas.size(), 3u);
  std::uint64_t traced_messages = 0;
  for (const RoundDelta& r : deltas) {
    EXPECT_EQ(r.messages, 8u) << "round " << r.round;
    // Actual widths, not the nominal kBitsPerMessage: round r consumes
    // the payload broadcast in round r - 1 (0, 1, 2), so each message is
    // kTagBits + bit_width(r - 1) bits wide.
    const std::uint64_t width =
        kTagBits + std::bit_width(std::uint64_t{r.round} - 1);
    EXPECT_EQ(r.payload_bits, 8u * width) << "round " << r.round;
    EXPECT_EQ(r.fault_drops, 0u);
    EXPECT_EQ(r.fault_duplicates, 0u);
    EXPECT_EQ(r.fault_crashes, 0u);
    EXPECT_EQ(r.fault_recoveries, 0u);
    traced_messages += r.messages;
  }
  EXPECT_EQ(traced_messages, stats.messages);
  // The run-wide total keeps the nominal full-word charge.
  EXPECT_EQ(stats.payload_bits, stats.messages * kBitsPerMessage);
}

TEST(RunStats, AbsorbAddsRoundsAndMessages) {
  RunStats a{.rounds = 3, .messages = 10, .payload_bits = 720,
             .max_edge_load = 1, .all_halted = true};
  RunStats b{.rounds = 2, .messages = 5, .payload_bits = 360,
             .max_edge_load = 2, .all_halted = true};
  a.absorb(b);
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_EQ(a.messages, 15u);
  EXPECT_EQ(a.max_edge_load, 2u);
  EXPECT_TRUE(a.all_halted);
}

TEST(RunStats, AbsorbAccumulatesAllHaltedConjunctively) {
  // A pipeline halted iff every stage halted: one incomplete stage must
  // poison the composition no matter where it sits, and in particular a
  // complete *last* stage must not launder an earlier timeout (the old
  // behavior was last-stage-wins).
  const RunStats complete{.rounds = 1, .messages = 0, .payload_bits = 0,
                          .max_edge_load = 0, .all_halted = true};
  const RunStats timed_out{.rounds = 1, .messages = 0, .payload_bits = 0,
                           .max_edge_load = 0, .all_halted = false};

  RunStats pipeline = complete;
  pipeline.absorb(timed_out);
  EXPECT_FALSE(pipeline.all_halted);
  pipeline.absorb(complete);
  EXPECT_FALSE(pipeline.all_halted) << "a later complete stage must not "
                                       "clear an earlier stage's timeout";

  RunStats ok = complete;
  ok.absorb(complete);
  EXPECT_TRUE(ok.all_halted);
}

}  // namespace
}  // namespace arbmis::sim
