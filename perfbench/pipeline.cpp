// pipeline: one core::arb_mis call per op, on both sides of the Δ split.
//
// Every pass solves two hubbed_forest_union(2^17, k=2, hubs=16) graphs
// through MappedGraphs (large Δ: Algorithm 1's scales run and decide every
// node) and two in-memory union_of_random_forests(2^17, k=2) (small Δ: the
// practical Θ is 0 and every node goes to the Vlo finisher), each with two
// arb_mis seeds.
//
// The traced run rebuilds arb_mis from its public stages with a span around
// each call into graph, core, sim and mis, and checks that the rebuilt
// labels hash equals the one core::arb_mis produced.
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/arb_mis.h"
#include "graph/generators.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "graph/subgraph.h"
#include "mis/degree_reduction.h"
#include "mis/metivier.h"
#include "mis/slow_local.h"
#include "mis/verifier.h"
#include "obs/profile.h"
#include "serve/service.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using arbmis::core::ArbOutcome;
using arbmis::graph::GraphView;
using arbmis::graph::NodeId;
using arbmis::mis::MisState;
namespace core = arbmis::core;
namespace graph = arbmis::graph;
namespace mis = arbmis::mis;
namespace sim = arbmis::sim;
namespace storage = arbmis::graph::storage;

constexpr NodeId kNodes = NodeId{1} << 17;
/// Even graph indices are hubbed (mapped), odd ones forests (in memory).
constexpr std::size_t kGraphs = 4;
constexpr std::uint64_t kInputs = 8;

/// What the traced rebuild of arb_mis produced, with its counts.
struct Rebuild {
  std::vector<MisState> state;
  sim::RunStats sim;  ///< summed over the simulator runs (no flush rounds)
  double subgraph_calls = 0;
  double subgraph_edges = 0;
  double shatter_nodes = 0;
  double vlo = 0;
  double vhi = 0;
  double bad = 0;
};

graph::Subgraph traced_subgraph(GraphView g,
                                const std::vector<std::uint8_t>& mask,
                                SpanLog& log, Rebuild& out) {
  const Scope span(&log, "graph.induced_subgraph");
  graph::Subgraph sub = graph::induced_subgraph(g, mask);
  out.subgraph_calls += 1;
  out.subgraph_edges += static_cast<double>(sub.graph.num_edges());
  return sub;
}

template <typename Algo>
void traced_run(GraphView g, Algo& algorithm, std::uint64_t seed,
                std::uint32_t max_rounds, SpanLog& log, Rebuild& out) {
  std::optional<sim::Network> net;
  {
    const Scope span(&log, "sim.network_ctor");
    net.emplace(g, seed);
  }
  const Scope span(&log, "sim.network_run");
  out.sim.absorb(net->run(algorithm, max_rounds));
}

/// Mirrors arb_mis's run_stage: finish the still-undecided nodes of
/// `stage_mask` on their induced subgraph and merge the labels back.
template <typename Algo>
void traced_stage(GraphView g, const std::vector<std::uint8_t>& stage_mask,
                  std::uint64_t seed, std::uint32_t max_rounds, SpanLog& log,
                  Rebuild& out) {
  std::vector<std::uint8_t> eligible(g.num_nodes(), 0);
  bool any = false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    eligible[v] = stage_mask[v] != 0 && out.state[v] == MisState::kUndecided;
    any = any || eligible[v] != 0;
  }
  if (!any) return;
  const graph::Subgraph sub = traced_subgraph(g, eligible, log, out);
  const Scope span(&log, "mis.finish");
  Algo algorithm(sub.graph);
  traced_run(sub.graph, algorithm, seed, max_rounds, log, out);
  const std::vector<MisState>& local = algorithm.states();
  for (NodeId i = 0; i < sub.graph.num_nodes(); ++i) {
    if (local[i] != MisState::kUndecided) out.state[sub.original(i)] = local[i];
  }
  mis::finalize_partial(g, out.state);
}

/// core::arb_mis with default options rebuilt from its public stages.
Rebuild traced_arb_mis(GraphView g, const core::ArbMisOptions& options,
                       std::uint64_t seed, SpanLog& log) {
  Rebuild out;
  const NodeId n = g.num_nodes();
  out.state.assign(n, MisState::kUndecided);
  const graph::Subgraph shatter_sub =
      traced_subgraph(g, std::vector<std::uint8_t>(n, 1), log, out);
  out.shatter_nodes = static_cast<double>(shatter_sub.graph.num_nodes());

  std::vector<std::uint8_t> bad_mask(n, 0);
  std::vector<std::uint8_t> vlo(n, 0);
  std::vector<std::uint8_t> vhi(n, 0);
  {
    const Scope span(&log, "core.shatter");
    const core::Params params = core::Params::practical(
        options.alpha, shatter_sub.graph.max_degree(), options.tuning);
    core::BoundedArbIndependentSet algorithm(shatter_sub.graph, params);
    traced_run(shatter_sub.graph, algorithm, seed + 1, params.total_rounds(),
               log, out);
    std::vector<std::uint8_t> remaining(n, 0);
    const std::vector<ArbOutcome>& outcome = algorithm.outcomes();
    for (NodeId local = 0; local < shatter_sub.graph.num_nodes(); ++local) {
      const NodeId v = shatter_sub.original(local);
      switch (outcome[local]) {
        case ArbOutcome::kInMis: out.state[v] = MisState::kInMis; break;
        case ArbOutcome::kCovered: out.state[v] = MisState::kCovered; break;
        case ArbOutcome::kBad: bad_mask[v] = 1; break;
        case ArbOutcome::kRemaining: remaining[v] = 1; break;
        case ArbOutcome::kActive: break;  // arb_mis throws; the hash check fails
      }
    }
    mis::finalize_partial(g, out.state);
    (void)core::shattering_stats(g, bad_mask);
    const std::uint64_t cut = params.residual_degree_cut();
    for (NodeId v = 0; v < n; ++v) {
      if (remaining[v] == 0) continue;
      std::uint64_t degree = 0;
      for (const NodeId w : g.neighbors(v)) degree += remaining[w];
      (degree <= cut ? vlo : vhi)[v] = 1;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    out.vlo += vlo[v];
    out.vhi += vhi[v];
    out.bad += bad_mask[v];
  }
  traced_stage<mis::MetivierMis>(g, vlo, seed + 2, 1u << 20, log, out);
  traced_stage<mis::MetivierMis>(g, vhi, seed + 3, 1u << 20, log, out);
  traced_stage<mis::ElectionMis>(g, bad_mask, seed + 4, 1u << 24, log, out);
  return out;
}

}  // namespace

void run_pipeline(const Args& args, Report& report) {
  std::vector<std::optional<storage::MappedGraph>> mapped(kGraphs);
  std::vector<graph::Graph> in_memory(kGraphs);
  std::vector<double> write_ms;
  std::vector<double> open_ms;

  // Set-up: generate the graphs and write + map the hubbed ones, five times.
  const double setup_s = median_setup_s(5, [&] {
    for (std::size_t i = 0; i < kGraphs; ++i) {
      arbmis::util::Rng rng(arbmis::util::mix64(args.seed, i));
      if (i % 2 == 1) {
        in_memory[i] = graph::gen::union_of_random_forests(kNodes, 2, rng);
        continue;
      }
      mapped[i].reset();
      const std::string path =
          args.workdir + "/pipeline" + std::to_string(i) + ".gr";
      const graph::Graph g = graph::gen::hubbed_forest_union(kNodes, 2, 16, rng);
      std::uint64_t t0 = now_ns();
      storage::write_gr(path, g);
      write_ms.push_back(ms_since(t0));
      t0 = now_ns();
      mapped[i].emplace(storage::MappedGraph::open(path));
      open_ms.push_back(ms_since(t0));
    }
  });
  // Ops cycle through kInputs (graph, arb_mis seed) pairs, so that a run's
  // median covers several random inputs of both kinds rather than one.
  std::vector<std::pair<GraphView, std::uint64_t>> inputs;
  for (std::uint64_t p = 0; p < kInputs; ++p) {
    const std::size_t i = p % kGraphs;
    inputs.emplace_back(i % 2 == 0 ? mapped[i]->view() : GraphView(in_memory[i]),
                        arbmis::util::mix64(args.seed, 0x5eed + p));
  }
  report.detail["nodes"] = kNodes;
  report.detail["graphs"] = kGraphs;
  report.detail["inputs"] = kInputs;
  double edges = 0;
  for (std::size_t i = 0; i < kGraphs; ++i) edges += static_cast<double>(inputs[i].first.num_edges());
  report.detail["edges_mean"] = edges / kGraphs;
  report.detail["file_bytes"] =
      static_cast<double>(mapped[0]->header().expected_file_bytes());

  core::ArbMisOptions options;
  options.alpha = 2;

  // One op = one arb_mis call; the check afterwards is not timed. Every
  // input must give the same labels each time it runs. The counts of each
  // input's first run are summed into the exact counts.
  std::vector<std::uint64_t> expected(kInputs, 0);
  std::uint64_t hash_xor = 0;
  std::vector<double> verify_ms;
  std::uint64_t next = 0;
  const auto checked_op = [&](std::uint64_t p) {
    const auto& [g, seed] = inputs[p];
    const std::uint64_t t0 = now_ns();
    const core::ArbMisResult result = core::arb_mis(g, options, seed);
    const double ms = ms_since(t0);
    const std::uint64_t t1 = now_ns();
    const bool valid = mis::verify(g, result.mis).ok();
    verify_ms.push_back(ms_since(t1));
    const std::uint64_t hash = arbmis::serve::labels_hash(result.mis.state);
    if (expected[p] == 0) {
      expected[p] = hash;
      hash_xor ^= hash;
      report.detail["exact.sim_rounds"] += result.mis.stats.rounds;
      report.detail["exact.sim_messages"] += static_cast<double>(result.mis.stats.messages);
      report.detail["exact.sim_payload_bits"] += static_cast<double>(result.mis.stats.payload_bits);
      report.detail["exact.stage_nodes_vlo"] += static_cast<double>(result.vlo_size);
      report.detail["exact.stage_nodes_vhi"] += static_cast<double>(result.vhi_size);
      report.detail["exact.stage_nodes_bad"] += static_cast<double>(result.bad_size);
      report.detail["exact.mis_size"] += static_cast<double>(result.mis.mis_size());
    }
    report.check(valid && !result.cleanup_used && hash == expected[p]);
    return ms;
  };

  checked_op(0);  // warm-up: faults the mapped pages in, warms allocators
  std::vector<double> solve_ms;
  const std::uint64_t pass_start = now_ns();
  if (!args.trace) {
    // solve_ms_p50 is the median over passes through all inputs of the pass's
    // mean op time: every pass solves the same inputs, so their differences
    // cancel, and a burst of host slowness moves one pass, not the median.
    std::vector<double> pass_ms;
    while (pass_ms.size() < 2 || ms_since(pass_start) < args.seconds * 1e3) {
      double sum = 0;
      for (std::uint64_t p = 0; p < kInputs; ++p) {
        solve_ms.push_back(checked_op(p));
        sum += solve_ms.back();
      }
      pass_ms.push_back(sum / static_cast<double>(kInputs));
    }
    double busy_ms = 0;
    for (const double ms : solve_ms) busy_ms += ms;
    report.metrics["setup_s"] = setup_s;
    report.metrics["solve_ms_p50"] = median(pass_ms);
    report.metrics["req_per_s"] = static_cast<double>(solve_ms.size()) / (busy_ms / 1e3);
    report.metrics["peak_rss_mb"] = peak_rss_mb(RUSAGE_SELF);
    report.detail["solve_samples"] = static_cast<double>(solve_ms.size());
    report.detail["solve_passes"] = static_cast<double>(pass_ms.size());
    report.detail_text["exact.labels_hash_xor"] = hex64(hash_xor);
    return;
  }

  // Traced run: alternate an untraced op with a traced rebuild of the same
  // input. Timings are medians over passes of the pass's mean per op, as for
  // solve_ms_p50 (a median over single ops of two kinds would fall between
  // them); counts are means over the first traced op of every input, so
  // they repeat exactly.
  SpanLog log;
  OpSeries series;
  std::map<std::string, double> pass_mean;
  std::map<std::string, double> counts;
  std::vector<double> traced_ms;
  while (traced_ms.size() % kInputs != 0 || traced_ms.size() < kInputs ||
         ms_since(pass_start) < args.seconds * 1e3) {
    const std::uint64_t p = next++ % kInputs;
    solve_ms.push_back(checked_op(p));
    arbmis::obs::Profiler profiler;
    const std::size_t first = log.size();
    Rebuild rebuilt;
    const double faults = minor_faults();
    {
      const arbmis::obs::ScopedProfiler attach(&profiler);
      const Scope root(&log, "op");
      rebuilt = traced_arb_mis(inputs[p].first, options, inputs[p].second, log);
    }
    const Span& op = log.spans()[first];
    const double op_ms = static_cast<double>(op.end - op.start) / 1e6;
    traced_ms.push_back(op_ms);
    report.check(arbmis::serve::labels_hash(rebuilt.state) == expected[p]);

    std::map<std::string, double> v = log.self_ms(first);
    const std::map<std::string, double> op_values = {
      {"graph.induced_subgraph_ms", v["graph.induced_subgraph"]},
      {"sim.network_ctor_ms", v["sim.network_ctor"]},
      {"sim.network_run_ms", v["sim.network_run"]},
      {"sim.round_ms", chrome_trace_total_ms(profiler.to_chrome_trace_json(),
                                             "net.round")},
      {"sim.ns_per_message",
       v["sim.network_run"] * 1e6 / static_cast<double>(rebuilt.sim.messages)},
      {"core.shatter_ms", v["core.shatter"]},
      {"mis.finish_ms", v["mis.finish"]},
      {"os.minor_faults", minor_faults() - faults},
      {"trace.coverage", log.children_ms(static_cast<int>(first)) / op_ms}};
    for (const auto& [name, value] : op_values) {
      pass_mean[name] += value / static_cast<double>(kInputs);
    }
    if (traced_ms.size() % kInputs == 0) {
      series.add_op(pass_mean);
      pass_mean.clear();
    }
    if (traced_ms.size() <= kInputs) {
      const double share = 1.0 / kInputs;
      counts["graph.induced_subgraph_calls"] += rebuilt.subgraph_calls * share;
      counts["graph.subgraph_edges"] += rebuilt.subgraph_edges * share;
      counts["sim.rounds"] += rebuilt.sim.rounds * share;
      counts["sim.messages"] += static_cast<double>(rebuilt.sim.messages) * share;
      counts["sim.payload_bits"] += static_cast<double>(rebuilt.sim.payload_bits) * share;
      counts["core.stage_nodes.shatter"] += rebuilt.shatter_nodes * share;
      counts["core.stage_nodes.vlo"] += rebuilt.vlo * share;
      counts["core.stage_nodes.vhi"] += rebuilt.vhi * share;
      counts["core.stage_nodes.bad"] += rebuilt.bad * share;
    }
  }
  for (const char* name :
       {"graph.induced_subgraph_ms", "sim.network_ctor_ms", "sim.network_run_ms",
        "sim.round_ms", "sim.ns_per_message", "core.shatter_ms", "mis.finish_ms",
        "os.minor_faults", "trace.coverage"}) {
    report.metrics[name] = series.median_of(name);
  }
  for (const auto& [name, value] : counts) report.metrics[name] = value;
  report.metrics["mis.verify_ms"] = median(verify_ms);
  double traced_sum = 0;
  double untraced_sum = 0;
  for (std::size_t i = 0; i < traced_ms.size(); ++i) {
    traced_sum += traced_ms[i];
    untraced_sum += solve_ms[i];
  }
  report.metrics["trace.overhead_frac"] = traced_sum / untraced_sum - 1.0;
  report.metrics["storage.write_gr_ms"] = median(write_ms);
  report.metrics["storage.open_verify_ms"] = median(open_ms);
  report.metrics["storage.file_bytes"] =
      static_cast<double>(mapped[0]->header().expected_file_bytes());
  report.detail["traced_ops"] = static_cast<double>(traced_ms.size());
  if (!args.trace_out.empty()) log.write_jsonl(args.trace_out);
}

}  // namespace perfbench
