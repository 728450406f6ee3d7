#pragma once
/// \file jp.hpp
/// Algorithm 3: the Jones–Plassmann maximal-independent-set coloring
/// (Luby-style random priorities), the algorithmic family csrcolor belongs
/// to. This is the CPU reference implementation, used for quality
/// comparisons and to cross-check the multi-hash variant.

#include <cstdint>

#include "coloring/coloring.hpp"
#include "graph/csr_graph.hpp"

namespace speckle::coloring {

struct JpOptions {
  std::uint64_t seed = 1;
};

struct JpResult {
  Coloring coloring;
  color_t num_colors = 0;
  std::uint32_t rounds = 0;
  double wall_ms = 0.0;
};

JpResult jones_plassmann(const graph::CsrGraph& g, const JpOptions& opts = {});

}  // namespace speckle::coloring
