#pragma once
/// \file ordering.hpp
/// Vertex visit orders for the sequential greedy algorithm.
///
/// The paper's sequential baseline is First Fit (natural order). The
/// classical alternatives trade time for fewer colors (Section II): Largest
/// Degree First (Welsh–Powell) and Smallest Last (Matula–Beck). Random order
/// is used by tests to show correctness is ordering-independent while
/// quality is not.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"

namespace speckle::coloring {

enum class Ordering {
  kFirstFit,      ///< natural vertex order (the paper's baseline)
  kLargestFirst,  ///< non-increasing degree
  kSmallestLast,  ///< Matula–Beck degeneracy order
  kRandom,        ///< seeded shuffle
};

const char* ordering_name(Ordering o);

/// Compute the visit order under `o`. O(n) / O(n log n) / O(n + m) resp.
std::vector<graph::vid_t> make_order(const graph::CsrGraph& g, Ordering o,
                                     std::uint64_t seed = 1);

}  // namespace speckle::coloring
