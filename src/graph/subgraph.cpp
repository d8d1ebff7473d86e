#include "graph/subgraph.h"

#include <algorithm>

namespace arbmis::graph {

Subgraph induced_subgraph(GraphView g, std::span<const std::uint8_t> mask) {
  const NodeId n = g.num_nodes();
  Subgraph out;
  out.to_local.assign(n, Subgraph::kNotInSubgraph);
  std::uint64_t kept_degrees = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (mask[v] == 0) continue;
    out.to_local[v] = static_cast<NodeId>(out.to_original.size());
    out.to_original.push_back(v);
    kept_degrees += g.degree(v);
  }
  // Kept nodes are numbered in ascending parent order, so the id map is
  // monotone and filtering a sorted parent neighbor list yields a sorted
  // local one: the CSR is written in one O(n + m) pass, byte-identical to
  // what Builder would produce from the induced edge list.
  const auto k = static_cast<NodeId>(out.to_original.size());
  Graph& h = out.graph;
  h = Graph(k);
  h.adjacency_.reserve(kept_degrees);
  for (NodeId local = 0; local < k; ++local) {
    for (const NodeId w : g.neighbors(out.to_original[local])) {
      const NodeId w_local = out.to_local[w];
      if (w_local != Subgraph::kNotInSubgraph) h.adjacency_.push_back(w_local);
    }
    h.offsets_[local + 1] = h.adjacency_.size();
    h.max_degree_ = std::max(
        h.max_degree_, static_cast<NodeId>(h.offsets_[local + 1] -
                                           h.offsets_[local]));
  }
  return out;
}

Subgraph induced_subgraph(GraphView g, std::span<const NodeId> nodes) {
  std::vector<std::uint8_t> mask(g.num_nodes(), 0);
  for (const NodeId v : nodes) mask[v] = 1;
  return induced_subgraph(g, mask);
}

}  // namespace arbmis::graph
