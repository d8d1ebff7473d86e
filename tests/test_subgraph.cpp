// Tests for induced subgraph extraction and id mapping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"
#include "graph/subgraph.h"

namespace arbmis::graph {
namespace {

TEST(Subgraph, MaskExtraction) {
  const Graph g = gen::cycle(6);
  const std::vector<std::uint8_t> mask{1, 1, 1, 0, 0, 1};
  const Subgraph sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_nodes(), 4u);
  // Edges kept: 0-1, 1-2, 5-0.
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  EXPECT_TRUE(sub.contains(0));
  EXPECT_FALSE(sub.contains(3));
}

TEST(Subgraph, MappingRoundTrips) {
  util::Rng rng(53);
  const Graph g = gen::gnp(40, 0.15, rng);
  std::vector<std::uint8_t> mask(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); v += 2) mask[v] = 1;
  const Subgraph sub = induced_subgraph(g, mask);
  for (NodeId local = 0; local < sub.graph.num_nodes(); ++local) {
    const NodeId original = sub.original(local);
    EXPECT_TRUE(mask[original]);
    EXPECT_EQ(sub.to_local[original], local);
  }
}

TEST(Subgraph, EdgesMatchOriginal) {
  util::Rng rng(59);
  const Graph g = gen::random_apollonian(30, rng);
  std::vector<NodeId> nodes{0, 3, 5, 7, 11, 13, 20};
  const Subgraph sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.num_nodes(), nodes.size());
  for (NodeId a = 0; a < sub.graph.num_nodes(); ++a) {
    for (NodeId b = a + 1; b < sub.graph.num_nodes(); ++b) {
      EXPECT_EQ(sub.graph.has_edge(a, b),
                g.has_edge(sub.original(a), sub.original(b)));
    }
  }
}

TEST(Subgraph, EmptyMask) {
  const Graph g = gen::path(5);
  const std::vector<std::uint8_t> mask(5, 0);
  const Subgraph sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_nodes(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(Subgraph, FullMaskIsIsomorphic) {
  const Graph g = gen::cycle(8);
  const std::vector<std::uint8_t> mask(8, 1);
  const Subgraph sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(sub.original(v), v);
}

/// The pre-CSR-filter construction: collect the induced edge list under the
/// ascending id map and let from_edges (Builder) sort and lay it out.
Subgraph builder_reference(GraphView g, std::span<const std::uint8_t> mask) {
  Subgraph ref;
  ref.to_local.assign(g.num_nodes(), Subgraph::kNotInSubgraph);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (mask[v] == 0) continue;
    ref.to_local[v] = static_cast<NodeId>(ref.to_original.size());
    ref.to_original.push_back(v);
  }
  std::vector<Edge> edges;
  for (NodeId local = 0; local < ref.to_original.size(); ++local) {
    for (const NodeId w : g.neighbors(ref.to_original[local])) {
      const NodeId w_local = ref.to_local[w];
      if (w_local != Subgraph::kNotInSubgraph && local < w_local) {
        edges.push_back({local, w_local});
      }
    }
  }
  ref.graph =
      from_edges(static_cast<NodeId>(ref.to_original.size()), edges);
  return ref;
}

/// Offsets and adjacency of a graph, flattened from its public surface.
struct Csr {
  std::vector<std::uint64_t> offsets{0};
  std::vector<NodeId> adjacency;
};

Csr csr_of(const Graph& g) {
  Csr csr;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    csr.adjacency.insert(csr.adjacency.end(), nbrs.begin(), nbrs.end());
    csr.offsets.push_back(csr.adjacency.size());
  }
  return csr;
}

void expect_same_subgraph(const Subgraph& got, const Subgraph& want,
                          const std::string& label) {
  EXPECT_EQ(got.graph.num_nodes(), want.graph.num_nodes()) << label;
  EXPECT_EQ(got.graph.num_edges(), want.graph.num_edges()) << label;
  EXPECT_EQ(got.graph.max_degree(), want.graph.max_degree()) << label;
  const Csr a = csr_of(got.graph);
  const Csr b = csr_of(want.graph);
  EXPECT_EQ(a.offsets, b.offsets) << label;
  EXPECT_EQ(a.adjacency, b.adjacency) << label;
  EXPECT_EQ(got.to_original, want.to_original) << label;
  EXPECT_EQ(got.to_local, want.to_local) << label;
}

std::vector<std::pair<std::string, Graph>> subgraph_battery() {
  util::Rng rng(61);
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("path", gen::path(40));
  out.emplace_back("cycle", gen::cycle(33));
  out.emplace_back("star", gen::star(25));
  out.emplace_back("complete", gen::complete(12));
  out.emplace_back("complete_bipartite", gen::complete_bipartite(7, 9));
  out.emplace_back("grid", gen::grid(8, 9));
  out.emplace_back("hypercube", gen::hypercube(6));
  out.emplace_back("random_tree", gen::random_tree(200, rng));
  out.emplace_back("gnp", gen::gnp(150, 0.05, rng));
  out.emplace_back("forests", gen::union_of_random_forests(300, 3, rng));
  out.emplace_back("hubbed", gen::hubbed_forest_union(400, 2, 4, rng));
  out.emplace_back("apollonian", gen::random_apollonian(120, rng));
  out.emplace_back("k_degenerate", gen::k_degenerate(150, 4, rng));
  out.emplace_back("isolated", Graph(5));
  return out;
}

/// Random (dense and sparse), empty, full, and single-node masks.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> masks_for(
    NodeId n, util::Rng& rng) {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
  for (const double p : {0.5, 0.1}) {
    std::vector<std::uint8_t> mask(n);
    for (auto& bit : mask) bit = rng.bernoulli(p) ? 1 : 0;
    out.emplace_back("random" + std::to_string(p), std::move(mask));
  }
  out.emplace_back("empty", std::vector<std::uint8_t>(n, 0));
  out.emplace_back("full", std::vector<std::uint8_t>(n, 1));
  for (const NodeId v : {NodeId{0}, n / 2, n - 1}) {
    std::vector<std::uint8_t> mask(n, 0);
    mask[v] = 1;
    out.emplace_back("single" + std::to_string(v), std::move(mask));
  }
  return out;
}

TEST(Subgraph, LinearBuildMatchesBuilderReference) {
  util::Rng rng(67);
  for (const auto& [name, g] : subgraph_battery()) {
    const std::string path =
        ::testing::TempDir() + "arbmis_subgraph_" + name + ".gr";
    storage::write_gr(path, g);
    const storage::MappedGraph mapped = storage::MappedGraph::open(path);
    for (const auto& [mask_name, mask] : masks_for(g.num_nodes(), rng)) {
      const Subgraph want = builder_reference(g, mask);
      expect_same_subgraph(induced_subgraph(g, mask), want,
                           name + "/" + mask_name + "/memory");
      expect_same_subgraph(induced_subgraph(mapped.view(), mask), want,
                           name + "/" + mask_name + "/mapped");
      std::vector<NodeId> nodes(want.to_original.rbegin(),
                                want.to_original.rend());
      expect_same_subgraph(induced_subgraph(g, nodes), want,
                           name + "/" + mask_name + "/node_list");
    }
  }
}

}  // namespace
}  // namespace arbmis::graph
