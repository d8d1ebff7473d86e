// Determinism meta-test: every randomized algorithm is a pure function of
// (graph, seed) — two runs with the same seed must agree bit-for-bit on
// the outputs and the round counts; different seeds must (overwhelmingly
// likely) differ somewhere. This is what makes every experiment in
// bench/ reproducible from the seed it prints.
#include <gtest/gtest.h>

#include <string>

#include "core/arb_mis.h"
#include "core/ghaffari_arb.h"
#include "core/lw_tree_mis.h"
#include "engine/engine.h"
#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "mis/bit_metivier.h"
#include "mis/gather_solve.h"
#include "mis/ghaffari.h"
#include "mis/luby.h"
#include "mis/matching.h"
#include "mis/metivier.h"
#include "sim/network.h"

namespace arbmis {
namespace {

/// FNV-1a over the per-node MIS states: collision-safe enough to pin a
/// whole output vector as a single golden constant.
std::uint64_t state_hash(const std::vector<mis::MisState>& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const mis::MisState s : state) {
    h ^= static_cast<std::uint64_t>(s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Golden hash for the faulty Luby-B run in
/// GoldenFaultyPinAcrossExecutorsAndInboxes (graph hubbed_forest_union(400,
/// 2, 4, rng(2024)), network seed 11, fault seed 11).
constexpr std::uint64_t kGoldenFaultyLubyPin = 0x307006cb35222906ULL;

// Golden pins: the exact output words of the generator for fixed seeds.
// These lock the SplitMix64 seeding and xoshiro256** step across platforms
// and compilers — any drift in util/rng.h breaks every experiment's
// reproducibility-from-seed story, so it must break the build first.
TEST(Determinism, GoldenRngOutputWords) {
  util::Rng rng(42);
  EXPECT_EQ(rng.next(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(rng.next(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(rng.next(), 0xae17533239e499a1ULL);
  EXPECT_EQ(rng.next(), 0xecb8ad4703b360a1ULL);
}

TEST(Determinism, GoldenChildStreamDerivation) {
  // child(id) must hash (state, id) identically everywhere; ids 7 and 8
  // land in unrelated streams.
  const util::Rng parent(2016);
  EXPECT_EQ(parent.child(7).next(), 0x5ada46e29936522bULL);
  EXPECT_EQ(parent.child(8).next(), 0x99c73f74581aaae1ULL);
}

TEST(Determinism, GoldenBoundedDraws) {
  // below() (Lemire rejection) and uniform01() are part of the pinned
  // surface: algorithms consume these, not raw words.
  util::Rng rng(7);
  EXPECT_EQ(rng.below(1000), 700u);
  EXPECT_EQ(rng.below(1000), 278u);
  EXPECT_EQ(rng.below(1000), 839u);
  util::Rng dbl(9);
  EXPECT_DOUBLE_EQ(dbl.uniform01(), 0.0025834396857136177);
  EXPECT_DOUBLE_EQ(dbl.uniform01(), 0.25148937241585745);
}

TEST(Determinism, GoldenPerSeedMisOutputs) {
  // End-to-end pins: full MIS output vectors (as FNV-1a hashes) for fixed
  // (generator graph, seed) pairs. If any layer between the seed and the
  // final states — graph generation, per-node stream split, message
  // schedule, tie-breaking — changes behavior, these catch it.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);

  const auto met1 = mis::MetivierMis::run(g, 1);
  EXPECT_EQ(state_hash(met1.state), 0x87b54202a38a4860ULL);
  EXPECT_EQ(met1.stats.rounds, 5u);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 2).state),
            0x36af02129ce25543ULL);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 3).state),
            0xe1e2f725bdbeab0dULL);

  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 1).state),
            0xa70b8bcaaed6cc82ULL);
  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 2).state),
            0x83842878ad8031d8ULL);

  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 1).mis.state),
            0xe1e2f725bdbeab0dULL);
  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 2).mis.state),
            0x2ad32695e98905c0ULL);

  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 1).mis.state),
            0xe8f3f3171e775bd3ULL);
  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 2).mis.state),
            0xa05a05940c3562fdULL);
}

TEST(Determinism, GoldenPerSeedEngineLabels) {
  // Golden labels-hash pins for the shared-memory engine family
  // (src/engine/). One constant per seed, asserted for both engines:
  // the family's contract is that they compute the same set — the
  // lexicographically-first MIS w.r.t. (priority, id) — so distinct pins
  // per engine would be a bug, not extra coverage. Any drift in
  // util::mix64, the priority domain constant, or any engine's decision
  // rule breaks these before it can corrupt a benchmark.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
  constexpr std::uint64_t kEnginePinSeed1 = 0x82dd5c1ca73589a5ULL;
  constexpr std::uint64_t kEnginePinSeed2 = 0x838643010311e327ULL;

  for (const engine::EngineKind kind : engine::all_engines()) {
    engine::EngineOptions options;
    options.seed = 1;
    EXPECT_EQ(engine::solve(g, kind, options).labels_hash(), kEnginePinSeed1)
        << "seed=1 engine=" << engine::engine_name(kind);
    options.seed = 2;
    EXPECT_EQ(engine::solve(g, kind, options).labels_hash(), kEnginePinSeed2)
        << "seed=2 engine=" << engine::engine_name(kind);
  }

  // Round counts are part of the pinned surface for the fixpoint engine.
  engine::EngineOptions options;
  options.seed = 1;
  EXPECT_EQ(
      engine::solve(g, engine::EngineKind::kTestAndSet, options).rounds, 3u);
}

TEST(Determinism, GoldenPinsHoldUnderTheParallelExecutor) {
  // The same golden constants as GoldenPerSeedMisOutputs, re-checked with
  // every internally constructed Network routed through the 4-worker
  // parallel executor. No separate parallel goldens exist on purpose: the
  // executor's determinism-merge rule (sim/network.h) promises the serial
  // bytes, so the serial pins are the parallel pins.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
  const sim::ScopedNumThreads scoped(4);

  const auto met1 = mis::MetivierMis::run(g, 1);
  EXPECT_EQ(state_hash(met1.state), 0x87b54202a38a4860ULL);
  EXPECT_EQ(met1.stats.rounds, 5u);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 2).state),
            0x36af02129ce25543ULL);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 3).state),
            0xe1e2f725bdbeab0dULL);

  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 1).state),
            0xa70b8bcaaed6cc82ULL);
  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 2).state),
            0x83842878ad8031d8ULL);

  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 1).mis.state),
            0xe1e2f725bdbeab0dULL);
  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 2).mis.state),
            0x2ad32695e98905c0ULL);

  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 1).mis.state),
            0xe8f3f3171e775bd3ULL);
  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 2).mis.state),
            0xa05a05940c3562fdULL);
}

TEST(Determinism, GoldenPinsHoldUnderReferenceInboxes) {
  // Same constants once more, with every Network forced onto the pre-arena
  // vector-of-vectors inbox path. The arena's byte-identity promise
  // (sim/network.h) says both implementations produce the same delivery
  // bytes, so the serial pins are also the reference-inbox pins. If this
  // test disagrees with GoldenPerSeedMisOutputs, the arena drifted.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
  const sim::ScopedInboxImpl scoped(sim::InboxImpl::kReferenceVectors);

  const auto met1 = mis::MetivierMis::run(g, 1);
  EXPECT_EQ(state_hash(met1.state), 0x87b54202a38a4860ULL);
  EXPECT_EQ(met1.stats.rounds, 5u);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 2).state),
            0x36af02129ce25543ULL);
  EXPECT_EQ(state_hash(mis::MetivierMis::run(g, 3).state),
            0xe1e2f725bdbeab0dULL);

  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 1).state),
            0xa70b8bcaaed6cc82ULL);
  EXPECT_EQ(state_hash(mis::LubyBMis::run(g, 2).state),
            0x83842878ad8031d8ULL);

  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 1).mis.state),
            0xe1e2f725bdbeab0dULL);
  EXPECT_EQ(state_hash(core::arb_mis(g, {.alpha = 2}, 2).mis.state),
            0x2ad32695e98905c0ULL);

  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 1).mis.state),
            0xe8f3f3171e775bd3ULL);
  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(g, 2).mis.state),
            0xa05a05940c3562fdULL);
}

TEST(Determinism, GoldenFaultyPinAcrossExecutorsAndInboxes) {
  // One pinned constant for a lossy run: Luby-B under an i.i.d. adversary
  // (drops, duplicates, crash/recover) must hash identically through all
  // four (inbox implementation x executor) combinations. Duplicates are
  // the interesting part — they are exactly what spills into the arena's
  // overflow side buffer, so this pin covers the overflow delivery order.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);

  const auto run_faulty = [&](sim::InboxImpl impl, std::uint32_t threads) {
    const sim::ScopedInboxImpl inbox(impl);
    fault::IidAdversary adversary({.drop_rate = 0.2,
                                   .duplicate_rate = 0.1,
                                   .crash_rate = 0.01,
                                   .recovery_delay = 3});
    fault::FaultPlan plan(g, 11, adversary);
    sim::NetworkOptions options;
    options.num_threads = threads;
    options.fault = &plan;
    sim::Network net(g, 11, options);
    mis::LubyBMis algo(g);
    net.run(algo, 4096);
    return state_hash(algo.states());
  };

  const std::uint64_t pin = run_faulty(sim::InboxImpl::kArena, 0);
  EXPECT_EQ(run_faulty(sim::InboxImpl::kArena, 4), pin);
  EXPECT_EQ(run_faulty(sim::InboxImpl::kReferenceVectors, 0), pin);
  EXPECT_EQ(run_faulty(sim::InboxImpl::kReferenceVectors, 4), pin);
  // The absolute value is pinned too, so the faulty schedule itself is
  // locked against drift in FaultPlan / Rng, not just cross-impl agreement.
  EXPECT_EQ(pin, kGoldenFaultyLubyPin);
}

TEST(Determinism, GoldenGatherSolvePins) {
  // Full-output pins for GatherSolveMis, recorded BEFORE solve_locally's
  // hashed containers were replaced with dense index vectors: the greedy
  // sweep iterates the sorted node list either way, so the rewrite must
  // reproduce these bytes exactly. They also lock the BFS-rooting +
  // up/down schedule the decisions ride on (rounds included).
  {
    util::Rng rng(2024);
    const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
    const auto r = mis::GatherSolveMis::run(g, 1);
    EXPECT_EQ(state_hash(r.state), 0xbc00a096849bbff5ULL);
    EXPECT_EQ(r.stats.rounds, 593u);
  }
  {
    util::Rng rng(2026);
    const graph::Graph g = graph::gen::random_apollonian(500, rng);
    const auto r = mis::GatherSolveMis::run(g, 9);
    EXPECT_EQ(state_hash(r.state), 0x450b7af232782908ULL);
    EXPECT_EQ(r.stats.rounds, 1222u);
  }
}

TEST(Determinism, GoldenPinsHoldOffTheMappedStorage) {
  // The golden constants from GoldenPerSeedMisOutputs, re-checked with the
  // graph written to a binary .gr file and reloaded through the mmap
  // loader: storage backend joins executor and inbox implementation in the
  // set of axes the pins are invariant over.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);
  const std::string path = ::testing::TempDir() + "arbmis_det_pin.gr";
  graph::storage::write_gr(path, g);
  const graph::storage::MappedGraph mapped =
      graph::storage::MappedGraph::open(path);
  const graph::GraphView view = mapped;

  const auto met1 = mis::MetivierMis::run(view, 1);
  EXPECT_EQ(state_hash(met1.state), 0x87b54202a38a4860ULL);
  EXPECT_EQ(met1.stats.rounds, 5u);
  EXPECT_EQ(state_hash(mis::LubyBMis::run(view, 1).state),
            0xa70b8bcaaed6cc82ULL);
  EXPECT_EQ(state_hash(core::arb_mis(view, {.alpha = 2}, 1).mis.state),
            0xe1e2f725bdbeab0dULL);
  EXPECT_EQ(state_hash(core::arb_mis(view, {.alpha = 2}, 2).mis.state),
            0x2ad32695e98905c0ULL);
  EXPECT_EQ(state_hash(mis::BitMetivierMis::run(view, 1).mis.state),
            0xe8f3f3171e775bd3ULL);
}

TEST(Determinism, MappedMillionEdgeArbMisMatchesInMemory) {
  // Out-of-core at scale: a ~10^6-edge hubbed forest union is written to
  // .gr, reloaded via mmap, and run through the full arb_mis pipeline. The
  // mapped run must be byte-identical to the in-memory run — same MIS
  // state vector, same round/message accounting — proving the storage seam
  // holds at the graph sizes it exists for, not just on test toys.
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(520'001, 2, 64, rng);
  ASSERT_GE(g.num_edges(), 1'000'000u);

  const std::string path = ::testing::TempDir() + "arbmis_det_million.gr";
  graph::storage::write_gr(path, g);
  const graph::storage::MappedGraph mapped =
      graph::storage::MappedGraph::open(path);
  ASSERT_EQ(mapped.num_edges(), g.num_edges());

  const core::ArbMisResult memory = core::arb_mis(g, {.alpha = 2}, 7);
  const core::ArbMisResult disk = core::arb_mis(mapped, {.alpha = 2}, 7);
  EXPECT_EQ(state_hash(memory.mis.state), state_hash(disk.mis.state));
  EXPECT_EQ(memory.mis.state, disk.mis.state);
  EXPECT_EQ(memory.mis.stats.rounds, disk.mis.stats.rounds);
  EXPECT_EQ(memory.mis.stats.messages, disk.mis.stats.messages);
  EXPECT_EQ(memory.mis.stats.payload_bits, disk.mis.stats.payload_bits);
  EXPECT_TRUE(memory.mis.stats.all_halted);
}

TEST(Determinism, EveryAlgorithmIsAPureFunctionOfGraphAndSeed) {
  util::Rng rng(2024);
  const graph::Graph g = graph::gen::hubbed_forest_union(400, 2, 4, rng);

  auto expect_same = [&](auto run) {
    const auto a = run(11);
    const auto b = run(11);
    EXPECT_EQ(a, b);
  };

  expect_same([&](std::uint64_t s) { return mis::MetivierMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::LubyBMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::GhaffariMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::BitMetivierMis::run(g, s).mis.state; });
  expect_same([&](std::uint64_t s) { return mis::GatherSolveMis::run(g, s).state; });
  expect_same([&](std::uint64_t s) { return mis::IsraeliItaiMatching::run(g, s).partner; });
  expect_same([&](std::uint64_t s) { return core::arb_mis(g, {.alpha = 2}, s).mis.state; });
  expect_same([&](std::uint64_t s) { return core::ghaffari_arb_mis(g, s).mis.state; });
  expect_same([&](std::uint64_t s) {
    return core::lw_tree_mis(g, s, {.alpha = 2}).mis.state;
  });
}

TEST(Determinism, SeedsActuallyMatter) {
  util::Rng rng(2025);
  const graph::Graph g = graph::gen::gnp(300, 0.04, rng);
  // At least one of the randomized algorithms must differ across seeds
  // (all of them, in practice; require all to be safe against freak ties).
  EXPECT_NE(mis::MetivierMis::run(g, 1).state,
            mis::MetivierMis::run(g, 2).state);
  EXPECT_NE(mis::LubyBMis::run(g, 1).state, mis::LubyBMis::run(g, 2).state);
  EXPECT_NE(mis::BitMetivierMis::run(g, 1).mis.state,
            mis::BitMetivierMis::run(g, 2).mis.state);
  EXPECT_NE(mis::IsraeliItaiMatching::run(g, 1).partner,
            mis::IsraeliItaiMatching::run(g, 2).partner);
}

TEST(Determinism, RoundCountsReproduce) {
  util::Rng rng(2026);
  const graph::Graph g = graph::gen::random_apollonian(500, rng);
  EXPECT_EQ(mis::MetivierMis::run(g, 7).stats.rounds,
            mis::MetivierMis::run(g, 7).stats.rounds);
  EXPECT_EQ(core::arb_mis(g, {.alpha = 3}, 7).mis.stats.rounds,
            core::arb_mis(g, {.alpha = 3}, 7).mis.stats.rounds);
}

}  // namespace
}  // namespace arbmis
