#include "coloring/jp.hpp"

#include <vector>

#include "support/rng.hpp"
#include "support/timer.hpp"

namespace speckle::coloring {

using graph::vid_t;

JpResult jones_plassmann(const graph::CsrGraph& g, const JpOptions& opts) {
  const vid_t n = g.num_vertices();
  JpResult result;
  result.coloring.assign(n, kUncolored);

  support::Timer timer;
  // Stateless per-vertex priorities, fixed for the whole run; ties broken
  // by vertex id.
  std::vector<std::uint64_t> priority(n);
  for (vid_t v = 0; v < n; ++v) {
    priority[v] = support::mix64(opts.seed ^ (static_cast<std::uint64_t>(v) << 20));
  }

  std::vector<vid_t> worklist(n);
  for (vid_t v = 0; v < n; ++v) worklist[v] = v;
  std::vector<vid_t> next;
  color_t c = 1;

  while (!worklist.empty()) {
    ++result.rounds;
    next.clear();
    // Algorithm 3 lines 8-18: a vertex joins the independent set S when its
    // priority beats every *uncolored* neighbor's (ties by id).
    std::vector<vid_t> independent;
    for (vid_t v : worklist) {
      bool is_max = true;
      for (vid_t w : g.neighbors(v)) {
        if (result.coloring[w] != kUncolored) continue;
        if (priority[w] > priority[v] ||
            (priority[w] == priority[v] && w > v)) {
          is_max = false;
          break;
        }
      }
      (is_max ? independent : next).push_back(v);
    }
    for (vid_t v : independent) result.coloring[v] = c;
    ++c;
    worklist.swap(next);
  }
  result.wall_ms = timer.milliseconds();
  result.num_colors = count_colors(result.coloring);
  return result;
}

}  // namespace speckle::coloring
