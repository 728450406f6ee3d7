#include "coloring/balance.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace speckle::coloring {

using graph::vid_t;

namespace {

constexpr std::uint32_t kMaxRounds = 8;
constexpr double kTargetFactor = 1.05;

}  // namespace

BalanceResult balance_colors(const graph::CsrGraph& g, Coloring coloring) {
  SPECKLE_CHECK(verify_coloring(g, coloring).proper,
                "balance_colors requires a proper coloring");
  BalanceResult result;
  result.balance_before = color_balance(coloring);

  const color_t k = count_colors(coloring);
  if (k <= 1) {
    result.coloring = std::move(coloring);
    result.balance_after = result.balance_before;
    return result;
  }
  std::vector<vid_t> class_size(k + 1, 0);
  for (color_t c : coloring) ++class_size[c];
  const double ideal = static_cast<double>(coloring.size()) / k;

  std::vector<std::uint8_t> forbidden(k + 1, 0);
  for (std::uint32_t round = 0; round < kMaxRounds; ++round) {
    const vid_t current_max = *std::max_element(class_size.begin() + 1, class_size.end());
    if (current_max <= ideal * kTargetFactor) break;
    ++result.rounds;
    std::uint64_t round_moves = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      const color_t cv = coloring[v];
      if (static_cast<double>(class_size[cv]) <= ideal) continue;
      // Find the least-loaded permissible class strictly better than cv's.
      std::fill(forbidden.begin(), forbidden.end(), 0);
      for (vid_t w : g.neighbors(v)) forbidden[coloring[w]] = 1;
      color_t best = cv;
      for (color_t c = 1; c <= k; ++c) {
        if (c == cv || forbidden[c]) continue;
        if (class_size[c] + 1 < class_size[best]) best = c;
      }
      if (best != cv) {
        --class_size[cv];
        ++class_size[best];
        coloring[v] = best;
        ++round_moves;
      }
    }
    result.moves += round_moves;
    if (round_moves == 0) break;
  }

  result.balance_after = color_balance(coloring);
  result.coloring = std::move(coloring);
  return result;
}

}  // namespace speckle::coloring
