#pragma once
/// \file refine.hpp
/// Iterated-greedy color refinement (Culberson): re-running the greedy
/// algorithm with vertices grouped by their current color classes can never
/// increase the color count, and visiting the classes in reverse order
/// (Culberson's classic choice) frequently decreases it. A cheap post-pass
/// that recovers quality lost to speculation or to a poor initial ordering.

#include <cstdint>

#include "coloring/coloring.hpp"
#include "graph/csr_graph.hpp"

namespace speckle::coloring {

struct RefineOptions {
  std::uint32_t rounds = 4;
};

struct RefineResult {
  Coloring coloring;
  color_t colors_before = 0;
  color_t colors_after = 0;
  std::uint32_t rounds_run = 0;  ///< stops early once a round stops improving
};

/// Refine a proper coloring. The result is proper and never uses more
/// colors than the input.
RefineResult iterated_greedy(const graph::CsrGraph& g, Coloring coloring,
                             const RefineOptions& opts = {});

}  // namespace speckle::coloring
