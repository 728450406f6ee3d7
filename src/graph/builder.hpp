#pragma once
/// \file builder.hpp
/// Edge-list to CSR conversion with the cleanup coloring needs:
/// symmetrization, self-loop removal, duplicate removal, sorted adjacency.
///
/// "We store graphs in the order they are defined and do not perform any
/// preprocessing in order to improve locality or load balance" (paper,
/// Section III-C) — the builder therefore never reorders vertices; only
/// adjacency lists are sorted (a property of CSR from sorted input, not a
/// locality optimization).

#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace speckle::graph {

/// A directed edge (src, dst). Generators emit these; the builder cleans up.
struct Edge {
  vid_t src;
  vid_t dst;
  friend bool operator==(const Edge&, const Edge&) = default;
};

using EdgeList = std::vector<Edge>;

/// Build a CSR graph over `num_vertices` vertices from an edge list: the
/// reverse of every edge is added, self loops and duplicates are dropped,
/// and each adjacency list is sorted. Edges referencing vertices >=
/// num_vertices abort. O(m log m).
CsrGraph build_csr(vid_t num_vertices, EdgeList edges);

}  // namespace speckle::graph
