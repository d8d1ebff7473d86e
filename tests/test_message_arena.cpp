// Tests of the flat message arena backing the simulator inboxes
// (sim/network.h, "Message arena" section): CSR slot indexing against
// first/last ports and isolated nodes, occupancy reset across rounds and
// across run() calls, the duplicate-overflow side buffer, the enforced
// <= 1-message-per-directed-edge violation path, and the InboxImpl
// selection machinery (NetworkOptions::inbox beats ScopedInboxImpl beats
// the process default).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/network.h"

namespace arbmis {
namespace {

/// (src, tag, payload) triple recorded per delivered message, so tests can
/// assert the exact inbox byte sequence, not just its length.
struct Recorded {
  graph::NodeId src;
  std::uint32_t tag;
  std::uint64_t payload;

  bool operator==(const Recorded&) const = default;
};

/// Broadcasts `copies_per_port` messages per port per round for `rounds`
/// rounds and records every node's inbox contents in delivery order.
class RecordingBroadcast final : public sim::Algorithm {
 public:
  RecordingBroadcast(graph::NodeId n, std::uint32_t rounds,
                     std::uint32_t copies_per_port = 1)
      : rounds_(rounds), copies_per_port_(copies_per_port), inboxes_(n) {}

  std::string_view name() const override { return "recording_broadcast"; }

  void on_start(sim::NodeContext& ctx) override {
    inboxes_[ctx.id()].clear();
    send_all(ctx);
  }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    auto& record = inboxes_[ctx.id()];
    for (const sim::Message& m : inbox) {
      record.push_back({m.src, m.tag, m.payload});
    }
    // Send even in the halting round: those messages are staged but never
    // delivered, which is exactly the leftover state the cross-run
    // occupancy-reset test needs to exist.
    send_all(ctx);
    if (ctx.round() >= rounds_) ctx.halt();
  }

  /// Messages node v received, in delivery order, across the whole run.
  const std::vector<Recorded>& inbox(graph::NodeId v) const {
    return inboxes_[v];
  }

 private:
  void send_all(sim::NodeContext& ctx) {
    for (graph::NodeId port = 0; port < ctx.degree(); ++port) {
      for (std::uint32_t c = 0; c < copies_per_port_; ++c) {
        ctx.send(port, c, ctx.id());
      }
    }
  }

  std::uint32_t rounds_;
  std::uint32_t copies_per_port_;
  std::vector<std::vector<Recorded>> inboxes_;
};

/// Broadcasts only in even rounds; odd-round inboxes must come back empty,
/// which fails unless the occupancy counts really reset between rounds.
class AlternatingBroadcast final : public sim::Algorithm {
 public:
  AlternatingBroadcast(graph::NodeId n, std::uint32_t rounds)
      : rounds_(rounds), inbox_sizes_(n) {}

  std::string_view name() const override { return "alternating_broadcast"; }

  void on_start(sim::NodeContext& ctx) override {
    inbox_sizes_[ctx.id()].clear();
    ctx.broadcast(0, ctx.id());
  }

  void on_round(sim::NodeContext& ctx,
                std::span<const sim::Message> inbox) override {
    inbox_sizes_[ctx.id()].push_back(
        static_cast<std::uint32_t>(inbox.size()));
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    if (ctx.round() % 2 == 0) ctx.broadcast(0, ctx.id());
  }

  const std::vector<std::uint32_t>& sizes(graph::NodeId v) const {
    return inbox_sizes_[v];
  }

 private:
  std::uint32_t rounds_;
  std::vector<std::vector<std::uint32_t>> inbox_sizes_;
};

/// Sends twice down port 0 in one round — the <= 1 per directed edge
/// violation the network must reject while enforcement is on.
class DoubleSender final : public sim::Algorithm {
 public:
  std::string_view name() const override { return "double_sender"; }
  void on_start(sim::NodeContext& ctx) override {
    if (ctx.id() == 0 && ctx.degree() > 0) {
      ctx.send(0, 0, 1);
      ctx.send(0, 0, 2);
    }
    ctx.halt();
  }
  void on_round(sim::NodeContext&, std::span<const sim::Message>) override {}
};

TEST(MessageArena, SlotLayoutMatchesCsrAndInboxIsPortOrdered) {
  // Path 0-1-2-3: interior nodes receive on both their first and last
  // ports, the endpoints only on their single port.
  const graph::Graph g = graph::gen::path(4);
  sim::Network net(g, /*seed=*/1);
  ASSERT_TRUE(net.uses_arena());
  // One slot per directed edge: 2 * |E| = 2 * 3.
  EXPECT_EQ(net.arena_slots(), 6u);

  RecordingBroadcast algo(4, /*rounds=*/1);
  net.run(algo, /*max_rounds=*/2);

  // Ascending-sender == port order for sorted adjacency.
  EXPECT_EQ(algo.inbox(0), (std::vector<Recorded>{{1, 0, 1}}));
  EXPECT_EQ(algo.inbox(1), (std::vector<Recorded>{{0, 0, 0}, {2, 0, 2}}));
  EXPECT_EQ(algo.inbox(2), (std::vector<Recorded>{{1, 0, 1}, {3, 0, 3}}));
  EXPECT_EQ(algo.inbox(3), (std::vector<Recorded>{{2, 0, 2}}));
}

TEST(MessageArena, IsolatedNodesGetEmptyRegions) {
  // Nodes 3 and 4 have no edges: their arena regions are empty and their
  // inboxes stay empty, but they still receive callbacks and halt.
  const std::vector<graph::Edge> edges = {{0, 1}, {1, 2}};
  const graph::Graph g = graph::from_edges(5, edges);
  sim::Network net(g, 2);
  EXPECT_EQ(net.arena_slots(), 4u);

  RecordingBroadcast algo(5, 1);
  const sim::RunStats stats = net.run(algo, 4);
  EXPECT_TRUE(stats.all_halted);
  EXPECT_TRUE(algo.inbox(3).empty());
  EXPECT_TRUE(algo.inbox(4).empty());
  EXPECT_EQ(algo.inbox(1),
            (std::vector<Recorded>{{0, 0, 0}, {2, 0, 2}}));

  // No nodes at all: a default view has no offsets array behind it, and
  // an empty Graph has a one-entry one. Both give an empty arena and a run
  // that ends before round 1, under either inbox implementation.
  const graph::Graph no_nodes(0);
  for (const graph::GraphView view :
       {graph::GraphView{}, graph::GraphView{no_nodes}}) {
    for (const sim::InboxImpl impl :
         {sim::InboxImpl::kArena, sim::InboxImpl::kReferenceVectors}) {
      sim::NetworkOptions options;
      options.inbox = impl;
      sim::Network empty(view, 2, options);
      EXPECT_EQ(empty.arena_slots(), 0u);
      RecordingBroadcast none(0, 1);
      const sim::RunStats empty_stats = empty.run(none, 4);
      EXPECT_TRUE(empty_stats.all_halted);
      EXPECT_EQ(empty_stats.rounds, 0u);
    }
  }
}

TEST(MessageArena, SelfLoopsAreRejectedAtGraphConstruction) {
  // The arena assumes no (v, v) slot exists; the graph builder upholds
  // that by refusing self-loops outright.
  const std::vector<graph::Edge> loop = {{1, 1}};
  EXPECT_THROW(graph::from_edges(4, loop), std::invalid_argument);
}

TEST(MessageArena, OccupancyResetsBetweenRounds) {
  const graph::Graph g = graph::gen::path(6);
  sim::Network net(g, 3);
  AlternatingBroadcast algo(6, /*rounds=*/5);
  net.run(algo, 8);
  // Sends happen in rounds 0, 2, 4 => inboxes are non-empty in rounds
  // 1, 3, 5 and empty in rounds 2, 4. A stale occupancy count would
  // resurrect the previous round's messages in the empty rounds.
  const std::vector<std::uint32_t> interior = {2, 0, 2, 0, 2};
  const std::vector<std::uint32_t> endpoint = {1, 0, 1, 0, 1};
  EXPECT_EQ(algo.sizes(0), endpoint);
  EXPECT_EQ(algo.sizes(2), interior);
  EXPECT_EQ(algo.sizes(5), endpoint);
}

TEST(MessageArena, OccupancyResetsBetweenRuns) {
  // Two runs on one Network: the second must start from clean inboxes
  // (RNG streams persist by contract, but these algorithms draw none).
  const graph::Graph g = graph::gen::path(5);
  sim::Network net(g, 4);

  RecordingBroadcast first(5, 2);
  net.run(first, 4);
  // The final round's sends were staged but never delivered (every node
  // halts right after sending); a run-reset bug would leak them into the
  // next run's round 1.
  EXPECT_GT(net.in_flight(), 0u);
  RecordingBroadcast second(5, 2);
  net.run(second, 4);
  for (graph::NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(first.inbox(v), second.inbox(v)) << "node " << v;
  }
}

TEST(MessageArena, DuplicateStormOverflowsIntoSideBuffer) {
  // duplicate_rate = 1.0: every send is delivered twice, so every node
  // receives 2 * degree copies — degree of them past its arena region, in
  // the side buffer. Delivery order duplicates each sender in place.
  const graph::Graph g = graph::gen::path(4);
  fault::IidAdversary adversary({.duplicate_rate = 1.0});
  fault::FaultPlan plan(g, 5, adversary);
  sim::NetworkOptions options;
  options.fault = &plan;
  sim::Network net(g, 5, options);

  std::vector<std::uint32_t> staged(4, 0);
  std::vector<std::uint32_t> overflowed(4, 0);
  RecordingBroadcast algo(4, 1);
  net.run(algo, 2, [&](const sim::Network& n, std::uint32_t round) {
    if (round != 1) return;
    for (graph::NodeId v = 0; v < 4; ++v) {
      staged[v] = n.staged_inbox_size(v);
      overflowed[v] = n.staged_overflow_size(v);
    }
  });

  EXPECT_EQ(algo.inbox(1),
            (std::vector<Recorded>{{0, 0, 0}, {0, 0, 0}, {2, 0, 2},
                                   {2, 0, 2}}));
  EXPECT_EQ(algo.inbox(0), (std::vector<Recorded>{{1, 0, 1}, {1, 0, 1}}));
  // The round-1 observer sees round 2's staging: every copy doubled, the
  // excess past one-slot-per-edge capacity sitting in the side buffer.
  EXPECT_EQ(staged[1], 4u);
  EXPECT_EQ(overflowed[1], 2u);
  EXPECT_EQ(staged[0], 2u);
  EXPECT_EQ(overflowed[0], 1u);
}

TEST(MessageArena, RelaxedCapOverflowsInDeliveryOrder) {
  // With the per-edge cap raised to 2 the arena region (one slot per
  // directed edge) cannot hold everything; the overflow suffix must
  // preserve the exact delivery order: both copies of sender u before any
  // copy of sender w > u.
  const graph::Graph g = graph::gen::path(3);
  sim::NetworkOptions options;
  options.max_messages_per_edge_per_round = 2;
  sim::Network net(g, 6, options);

  RecordingBroadcast algo(3, 1, /*copies_per_port=*/2);
  net.run(algo, 2);
  EXPECT_EQ(algo.inbox(1),
            (std::vector<Recorded>{{0, 0, 0}, {0, 1, 0}, {2, 0, 2},
                                   {2, 1, 2}}));
  EXPECT_EQ(algo.inbox(0), (std::vector<Recorded>{{1, 0, 1}, {1, 1, 1}}));
}

TEST(MessageArena, EnforcedPerEdgeCapStillThrows) {
  // The overflow side buffer must not soften enforcement: with the
  // default cap of one message per directed edge per round, a second send
  // on the same port aborts the run at send time.
  const graph::Graph g = graph::gen::path(3);
  sim::Network net(g, 7);
  DoubleSender algo;
  EXPECT_THROW(net.run(algo, 2), std::logic_error);
}

TEST(MessageArena, ReferenceImplementationIsByteIdentical) {
  // The retained vector-inbox implementation must deliver the identical
  // byte sequence — the differential anchor the fuzz and equivalence
  // suites build on.
  const graph::Graph g = [] {
    util::Rng rng(8);
    return graph::gen::gnp(40, 0.1, rng);
  }();

  sim::NetworkOptions arena_options;
  arena_options.inbox = sim::InboxImpl::kArena;
  sim::Network arena_net(g, 9, arena_options);
  RecordingBroadcast arena_algo(40, 3);
  const sim::RunStats arena_stats = arena_net.run(arena_algo, 5);

  sim::NetworkOptions reference_options;
  reference_options.inbox = sim::InboxImpl::kReferenceVectors;
  sim::Network reference_net(g, 9, reference_options);
  ASSERT_FALSE(reference_net.uses_arena());
  RecordingBroadcast reference_algo(40, 3);
  const sim::RunStats reference_stats = reference_net.run(reference_algo, 5);

  EXPECT_EQ(arena_stats.messages, reference_stats.messages);
  EXPECT_EQ(arena_stats.rounds, reference_stats.rounds);
  for (graph::NodeId v = 0; v < 40; ++v) {
    EXPECT_EQ(arena_algo.inbox(v), reference_algo.inbox(v)) << "node " << v;
  }
}

TEST(MessageArena, InboxImplSelectionPrecedence) {
  const graph::Graph g = graph::gen::path(3);
  // Process default is the arena.
  EXPECT_EQ(sim::default_inbox_impl(), sim::InboxImpl::kArena);
  EXPECT_TRUE(sim::Network(g, 1).uses_arena());
  {
    const sim::ScopedInboxImpl scoped(sim::InboxImpl::kReferenceVectors);
    EXPECT_EQ(sim::default_inbox_impl(), sim::InboxImpl::kReferenceVectors);
    // kProcessDefault resolves through the override...
    EXPECT_FALSE(sim::Network(g, 1).uses_arena());
    // ...but an explicit per-network choice beats it.
    sim::NetworkOptions options;
    options.inbox = sim::InboxImpl::kArena;
    EXPECT_TRUE(sim::Network(g, 1, options).uses_arena());
    {
      // kProcessDefault in a scope restores the built-in default (arena).
      const sim::ScopedInboxImpl inner(sim::InboxImpl::kProcessDefault);
      EXPECT_EQ(sim::default_inbox_impl(), sim::InboxImpl::kArena);
    }
    EXPECT_EQ(sim::default_inbox_impl(), sim::InboxImpl::kReferenceVectors);
  }
  EXPECT_EQ(sim::default_inbox_impl(), sim::InboxImpl::kArena);
}

}  // namespace
}  // namespace arbmis
