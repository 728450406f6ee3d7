#include "coloring/refine.hpp"

#include <vector>

#include "coloring/seq_greedy.hpp"
#include "support/check.hpp"

namespace speckle::coloring {

using graph::vid_t;

namespace {

/// Greedy pass over a fixed vertex order; pure first fit.
Coloring greedy_over_order(const graph::CsrGraph& g, std::span<const vid_t> order) {
  Coloring coloring(g.num_vertices(), kUncolored);
  for (vid_t v : order) coloring[v] = first_fit_color(g, coloring, v);
  return coloring;
}

}  // namespace

RefineResult iterated_greedy(const graph::CsrGraph& g, Coloring coloring,
                             const RefineOptions& opts) {
  SPECKLE_CHECK(verify_coloring(g, coloring).proper,
                "iterated_greedy requires a proper coloring");
  RefineResult result;
  result.colors_before = count_colors(coloring);

  for (std::uint32_t round = 0; round < opts.rounds; ++round) {
    const color_t k = count_colors(coloring);
    if (k <= 2) break;  // already optimal for any graph with an edge

    // Bucket vertices by class, then lay the classes out highest first.
    // Greedy over class-grouped vertices never increases the count: when a
    // vertex is visited, earlier vertices of its own class are
    // non-adjacent, so it can always reuse its class's slot or better.
    std::vector<std::vector<vid_t>> classes(k);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      classes[coloring[v] - 1].push_back(v);
    }
    std::vector<vid_t> order;
    order.reserve(g.num_vertices());
    for (auto c = classes.rbegin(); c != classes.rend(); ++c) {
      order.insert(order.end(), c->begin(), c->end());
    }

    Coloring next = greedy_over_order(g, order);
    const color_t next_k = count_colors(next);
    SPECKLE_CHECK(next_k <= k, "iterated greedy must never increase colors");
    ++result.rounds_run;
    const bool improved = next_k < k;
    coloring = std::move(next);
    if (!improved) break;
  }

  result.colors_after = count_colors(coloring);
  result.coloring = std::move(coloring);
  return result;
}

}  // namespace speckle::coloring
