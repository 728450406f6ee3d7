#pragma once
/// \file balance.hpp
/// Color balancing post-pass (extension; after Gjertsen/Jones/Plassmann's
/// PDR/PLF balancing heuristics the paper cites as related work).
///
/// For chromatic scheduling, class sizes determine per-superstep
/// parallelism: a giant class followed by tiny ones wastes hardware. This
/// pass moves vertices out of over-full classes into the least-loaded
/// permissible class without increasing the number of colors.

#include "coloring/coloring.hpp"
#include "graph/csr_graph.hpp"

namespace speckle::coloring {

struct BalanceResult {
  Coloring coloring;
  double balance_before = 0.0;  ///< color_balance() prior to the pass
  double balance_after = 0.0;
  std::uint32_t rounds = 0;
  std::uint64_t moves = 0;
};

/// Rebalance `coloring` (must be proper) on graph `g`: at most 8 rounds of
/// moves (each scans all vertices once), stopping once the largest class is
/// within 1.05x of the ideal n/k. The result is proper and uses at most the
/// same number of colors.
BalanceResult balance_colors(const graph::CsrGraph& g, Coloring coloring);

}  // namespace speckle::coloring
