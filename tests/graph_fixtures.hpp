#pragma once
/// \file graph_fixtures.hpp
/// Test graphs: any generator model by spec string, plus the two fixed
/// shapes that are not generator models (ring lattice, complete graph).
///
///   const CsrGraph g = spec_graph("er:n=600,edges=4200,seed=7");
///   const CsrGraph ring = build_csr(501, ring_lattice(501, 2));

#include <cstddef>
#include <string>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/genspec.hpp"
#include "support/check.hpp"

namespace speckle::testing {

/// The edges of `text` (a genspec string) on the serial schedule: one
/// Xoshiro256(seed) stream over the model's whole range.
inline graph::EdgeList spec_edges(const std::string& text) {
  return graph::generate_edges_serial(graph::parse_generator_spec(text, 1));
}

/// spec_edges built into a CSR graph over the spec's vertex count.
inline graph::CsrGraph spec_graph(const std::string& text) {
  const graph::GeneratorSpec spec = graph::parse_generator_spec(text, 1);
  return graph::build_csr(static_cast<graph::vid_t>(spec.num_vertices),
                          graph::generate_edges_serial(spec));
}

/// Ring of n vertices with each vertex also linked to its k nearest
/// neighbors on each side (a regular graph).
inline graph::EdgeList ring_lattice(graph::vid_t num_vertices, graph::vid_t k) {
  SPECKLE_CHECK(num_vertices > 2 * k, "ring_lattice needs n > 2k");
  graph::EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * k);
  for (graph::vid_t v = 0; v < num_vertices; ++v) {
    for (graph::vid_t j = 1; j <= k; ++j) {
      edges.push_back({v, static_cast<graph::vid_t>((v + j) % num_vertices)});
    }
  }
  return edges;
}

/// Complete graph on n vertices (chromatic number = n).
inline graph::EdgeList complete(graph::vid_t num_vertices) {
  graph::EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * (num_vertices - 1) / 2);
  for (graph::vid_t v = 0; v < num_vertices; ++v) {
    for (graph::vid_t w = v + 1; w < num_vertices; ++w) edges.push_back({v, w});
  }
  return edges;
}

}  // namespace speckle::testing
