// ingest_mapped: storage-dominated solve of a large on-disk graph.
//
// Set-up generates hubbed_forest_union(2^19, k=4, hubs=64) as edge-list
// text, converts it with graph::storage::convert_edge_list and writes the
// .gr file. One op = MappedGraph::open with structure verification, then
// engine::solve(kTestAndSet). No simulator runs.
#include <charconv>
#include <optional>
#include <sstream>
#include <string>

#include "bench.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/storage/convert.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "mis/verifier.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace engine = arbmis::engine;
namespace graph = arbmis::graph;
namespace storage = arbmis::graph::storage;

constexpr graph::NodeId kNodes = graph::NodeId{1} << 19;
constexpr int kPassOps = 4;

std::string edge_list_text(const graph::Graph& g) {
  std::string text;
  text.reserve(static_cast<std::size_t>(g.num_edges()) * 16);
  char buf[16];
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::NodeId v : g.neighbors(u)) {
      if (v < u) continue;
      text.append(buf, std::to_chars(buf, buf + sizeof buf, u).ptr);
      text.push_back(' ');
      text.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
      text.push_back('\n');
    }
  }
  return text;
}

}  // namespace

void run_ingest(const Args& args, Report& report) {
  const std::string path = args.workdir + "/ingest_mapped.gr";
  std::vector<double> convert_ms;
  std::vector<double> write_ms;
  const double setup_s = median_setup_s(3, [&] {
    arbmis::util::Rng rng(args.seed);
    std::istringstream text(edge_list_text(
        graph::gen::hubbed_forest_union(kNodes, 4, 64, rng)));
    std::uint64_t t0 = now_ns();
    const storage::ConvertResult converted = storage::convert_edge_list(text);
    convert_ms.push_back(ms_since(t0));
    t0 = now_ns();
    storage::write_gr(path, converted.graph,
                      {.new_to_old = converted.new_to_old,
                       .degree_ordered = converted.degree_ordered});
    write_ms.push_back(ms_since(t0));
  });

  engine::EngineOptions engine_options;
  engine_options.seed = arbmis::util::mix64(args.seed, 0x5eed);

  std::uint64_t expected_hash = 0;
  std::uint64_t expected_rounds = 0;
  std::uint64_t file_bytes = 0;
  std::vector<double> verify_ms;
  // One op = open + verify the file, then solve; `log` set = traced op.
  const auto checked_op = [&](SpanLog* log) {
    std::optional<storage::MappedGraph> mapped;
    engine::EngineResult result;
    const std::uint64_t t0 = now_ns();
    {
      const Scope root(log, "op");
      {
        const Scope span(log, "storage.open_verify");
        mapped.emplace(storage::MappedGraph::open(path));
      }
      const Scope span(log, "engine.solve");
      result = engine::solve(mapped->view(), engine::EngineKind::kTestAndSet,
                             engine_options);
    }
    const double ms = ms_since(t0);
    const std::uint64_t t1 = now_ns();
    const bool valid = arbmis::mis::verify_mask(mapped->view(), result.in_mis).ok();
    verify_ms.push_back(ms_since(t1));
    if (expected_hash == 0) {
      expected_hash = result.labels_hash();
      expected_rounds = result.rounds;
      file_bytes = mapped->header().expected_file_bytes();
      report.detail["nodes"] = mapped->num_nodes();
      report.detail["edges"] = static_cast<double>(mapped->num_edges());
      report.detail["max_degree"] = mapped->max_degree();
      report.detail["file_bytes"] = static_cast<double>(file_bytes);
      report.detail["engine_rounds"] = static_cast<double>(result.rounds);
      report.detail["mis_size"] = static_cast<double>(result.mis_size());
      report.detail_text["labels_hash"] = hex64(expected_hash);
    }
    report.check(valid && result.labels_hash() == expected_hash &&
                 result.rounds == expected_rounds);
    return ms;
  };

  checked_op(nullptr);  // warm-up: pulls the file into the page cache
  std::vector<double> solve_ms;
  const std::uint64_t pass_start = now_ns();
  if (!args.trace) {
    // solve_ms_p50 is the median over passes of kPassOps ops of the pass's
    // mean op time, so that a burst of host slowness moves one pass, not the
    // median.
    std::vector<double> pass_ms;
    while (pass_ms.size() < 2 || ms_since(pass_start) < args.seconds * 1e3) {
      double sum = 0;
      for (int i = 0; i < kPassOps; ++i) {
        solve_ms.push_back(checked_op(nullptr));
        sum += solve_ms.back();
      }
      pass_ms.push_back(sum / kPassOps);
    }
    double busy_ms = 0;
    for (const double ms : solve_ms) busy_ms += ms;
    report.metrics["setup_s"] = setup_s;
    report.metrics["solve_ms_p50"] = median(pass_ms);
    report.metrics["req_per_s"] = static_cast<double>(solve_ms.size()) / (busy_ms / 1e3);
    report.metrics["peak_rss_mb"] = peak_rss_mb(RUSAGE_SELF);
    report.detail["solve_samples"] = static_cast<double>(solve_ms.size());
    report.detail["solve_passes"] = static_cast<double>(pass_ms.size());
    return;
  }

  SpanLog log;
  OpSeries series;
  std::vector<double> traced_ms;
  while (traced_ms.size() < 3 || ms_since(pass_start) < args.seconds * 1e3) {
    solve_ms.push_back(checked_op(nullptr));
    const std::size_t first = log.size();
    const double faults = minor_faults();
    traced_ms.push_back(checked_op(&log));
    std::map<std::string, double> v = log.self_ms(first);
    const Span& op = log.spans()[first];
    series.add_op({{"storage.open_verify_ms", v["storage.open_verify"]},
                   {"engine.solve_ms", v["engine.solve"]},
                   {"os.minor_faults", minor_faults() - faults},
                   {"trace.coverage",
                    log.children_ms(static_cast<int>(first)) /
                        (static_cast<double>(op.end - op.start) / 1e6)}});
  }
  for (const char* name :
       {"storage.open_verify_ms", "engine.solve_ms", "os.minor_faults",
        "trace.coverage"}) {
    report.metrics[name] = series.median_of(name);
  }
  report.metrics["storage.file_bytes"] = static_cast<double>(file_bytes);
  report.metrics["storage.convert_ms"] = median(convert_ms);
  report.metrics["storage.write_gr_ms"] = median(write_ms);
  report.metrics["engine.rounds"] = static_cast<double>(expected_rounds);
  report.metrics["mis.verify_ms"] = median(verify_ms);
  report.metrics["trace.overhead_frac"] =
      median(traced_ms) / median(solve_ms) - 1.0;
  report.detail["traced_ops"] = static_cast<double>(traced_ms.size());
  if (!args.trace_out.empty()) log.write_jsonl(args.trace_out);
}

}  // namespace perfbench
