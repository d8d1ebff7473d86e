// Immutable undirected simple graph in compressed sparse row (CSR) form.
//
// Every distributed algorithm in this repository runs against this type:
// node ids are dense [0, n), adjacency lists are sorted, and neighbor
// access is a contiguous span — which also gives each node a stable local
// "port" numbering (index into its adjacency list), the communication
// primitive the CONGEST simulator exposes.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace arbmis::graph {

using NodeId = std::uint32_t;

/// Undirected edge; normalized so u < v inside Builder.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class GraphView;
struct Subgraph;

class Graph {
 public:
  /// Empty graph with n isolated nodes.
  explicit Graph(NodeId n = 0);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  /// Number of undirected edges.
  std::uint64_t num_edges() const noexcept { return adjacency_.size() / 2; }

  /// Sorted neighbors of v.
  std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return std::span<const NodeId>(adjacency_)
        .subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  NodeId max_degree() const noexcept { return max_degree_; }

  /// True if {u, v} is an edge (binary search; O(log deg)).
  bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Port of neighbor w at node v, i.e. the index of w in neighbors(v).
  /// Throws std::invalid_argument if w is not adjacent to v.
  NodeId port_of(NodeId v, NodeId w) const;

  /// All edges, each reported once with u < v, sorted.
  std::vector<Edge> edges() const;

 private:
  friend class Builder;
  friend class GraphView;
  // Writes the CSR of an induced copy directly (graph/subgraph.cpp).
  friend Subgraph induced_subgraph(GraphView g,
                                   std::span<const std::uint8_t> mask);
  NodeId num_nodes_ = 0;
  NodeId max_degree_ = 0;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;       // size 2m, sorted per node
};

/// Non-owning CSR view — the storage seam every graph consumer runs
/// through. A GraphView is four words (n, Δ, offsets pointer, adjacency
/// pointer) and is passed by value; it exposes exactly the read surface of
/// Graph, so the simulator, the algorithms, the fault planner, and the
/// verifier are oblivious to whether the bytes behind it live in an
/// in-memory Graph or an mmap-mapped .gr file (graph/storage/
/// mapped_graph.h). Construction from Graph is implicit by design: every
/// `const Graph&` call site keeps compiling unchanged. The view does not
/// own or extend the lifetime of the underlying storage — the Graph or
/// MappedGraph must outlive it, exactly like a std::span.
class GraphView {
 public:
  /// Empty view (n = 0): valid, no storage behind it.
  constexpr GraphView() noexcept = default;

  /// Implicit by design — this conversion is the seam that lets Graph
  /// call sites flow into GraphView consumers unchanged.
  // NOLINTNEXTLINE(google-explicit-constructor): the implicit conversion IS the storage seam
  GraphView(const Graph& g) noexcept
      : num_nodes_(g.num_nodes_),
        max_degree_(g.max_degree_),
        offsets_(g.offsets_.data()),
        adjacency_(g.adjacency_.data()) {}

  /// Raw-CSR constructor (used by storage::MappedGraph). `offsets` must
  /// have n+1 monotone entries with offsets[0] == 0; `adjacency` must hold
  /// offsets[n] node ids, sorted within each node's range.
  GraphView(NodeId n, NodeId max_degree, const std::uint64_t* offsets,
            const NodeId* adjacency) noexcept
      : num_nodes_(n),
        max_degree_(max_degree),
        offsets_(offsets),
        adjacency_(adjacency) {}

  NodeId num_nodes() const noexcept { return num_nodes_; }
  /// Number of undirected edges.
  std::uint64_t num_edges() const noexcept {
    return offsets_ == nullptr ? 0 : offsets_[num_nodes_] / 2;
  }

  /// Sorted neighbors of v.
  std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {adjacency_ + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  NodeId max_degree() const noexcept { return max_degree_; }

  /// The CSR offsets: n+1 entries, node v's neighbors occupying
  /// [offsets()[v], offsets()[v+1]) of the adjacency. Empty for a
  /// default-constructed view, which has no storage behind it.
  std::span<const std::uint64_t> offsets() const noexcept {
    if (offsets_ == nullptr) return {};
    return {offsets_, static_cast<std::size_t>(num_nodes_) + 1};
  }

  /// True if {u, v} is an edge (binary search; O(log deg)).
  bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Port of neighbor w at node v, i.e. the index of w in neighbors(v).
  /// Throws std::invalid_argument if w is not adjacent to v.
  NodeId port_of(NodeId v, NodeId w) const;

  /// All edges, each reported once with u < v, sorted. Materializes a
  /// vector — O(m) memory; prefer neighbors() iteration on mapped graphs.
  std::vector<Edge> edges() const;

 private:
  NodeId num_nodes_ = 0;
  NodeId max_degree_ = 0;
  const std::uint64_t* offsets_ = nullptr;  // n+1 entries
  const NodeId* adjacency_ = nullptr;       // offsets_[n] entries
};

/// Accumulates edges and finalizes into a Graph. Rejects self-loops and
/// out-of-range endpoints immediately; duplicate edges are deduplicated at
/// build() time (multi-edges collapse to one).
class Builder {
 public:
  explicit Builder(NodeId n);

  NodeId num_nodes() const noexcept { return num_nodes_; }

  /// Adds undirected edge {u, v}. Throws std::invalid_argument on u == v or
  /// an endpoint >= n.
  Builder& add_edge(NodeId u, NodeId v);

  /// True if the edge was already added (linear in edges added so far is
  /// avoided by keeping the set sorted lazily at query time; intended for
  /// generator-internal use on small batches).
  bool has_edge(NodeId u, NodeId v) const noexcept;

  std::uint64_t num_edges_added() const noexcept { return edges_.size(); }

  /// Finalizes. The builder may be reused afterwards (it keeps its edges).
  Graph build() const;

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

/// Convenience: graph from an explicit edge list.
Graph from_edges(NodeId n, std::span<const Edge> edges);

/// Deterministic 64-bit structural hash of (n, adjacency). Two views hash
/// equal iff they describe the same labeled graph, regardless of storage
/// backend (in-memory Graph vs mmap-mapped .gr) — this is the cache-key
/// component the serving layer uses (docs/SERVING.md). O(n + m).
std::uint64_t content_hash(GraphView g);

}  // namespace arbmis::graph
