#include "coloring/ordering.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace speckle::coloring {

using graph::vid_t;

const char* ordering_name(Ordering o) {
  switch (o) {
    case Ordering::kFirstFit: return "first-fit";
    case Ordering::kLargestFirst: return "largest-first";
    case Ordering::kSmallestLast: return "smallest-last";
    case Ordering::kRandom: return "random";
  }
  return "?";
}

namespace {

std::vector<vid_t> natural_order(vid_t n) {
  std::vector<vid_t> order(n);
  std::iota(order.begin(), order.end(), 0U);
  return order;
}

std::vector<vid_t> largest_first(const graph::CsrGraph& g) {
  auto order = natural_order(g.num_vertices());
  std::stable_sort(order.begin(), order.end(),
                   [&](vid_t a, vid_t b) { return g.degree(a) > g.degree(b); });
  return order;
}

/// Matula–Beck: repeatedly remove a minimum-degree vertex; color in reverse
/// removal order. Implemented with degree buckets for O(n + m).
std::vector<vid_t> smallest_last(const graph::CsrGraph& g) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> degree(n);
  vid_t max_degree = 0;
  for (vid_t v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::vector<vid_t>> buckets(max_degree + 1);
  for (vid_t v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<bool> removed(n, false);
  std::vector<vid_t> removal;
  removal.reserve(n);
  vid_t cursor = 0;
  while (removal.size() < n) {
    while (cursor <= max_degree && buckets[cursor].empty()) ++cursor;
    SPECKLE_CHECK(cursor <= max_degree, "smallest-last bucket scan overran");
    const vid_t v = buckets[cursor].back();
    buckets[cursor].pop_back();
    // Stale entry: the vertex was removed, or its degree changed since this
    // entry was queued (a fresh entry exists at its current-degree bucket).
    if (removed[v] || degree[v] != cursor) continue;
    removed[v] = true;
    removal.push_back(v);
    for (vid_t w : g.neighbors(v)) {
      if (!removed[w] && degree[w] > 0) {
        --degree[w];
        buckets[degree[w]].push_back(w);
        if (degree[w] < cursor) cursor = degree[w];
      }
    }
  }
  std::reverse(removal.begin(), removal.end());
  return removal;
}

}  // namespace

std::vector<vid_t> make_order(const graph::CsrGraph& g, Ordering o, std::uint64_t seed) {
  switch (o) {
    case Ordering::kFirstFit: return natural_order(g.num_vertices());
    case Ordering::kLargestFirst: return largest_first(g);
    case Ordering::kSmallestLast: return smallest_last(g);
    case Ordering::kRandom: {
      auto order = natural_order(g.num_vertices());
      support::Xoshiro256 rng(seed);
      support::shuffle(order, rng);
      return order;
    }
  }
  SPECKLE_CHECK(false, "unhandled ordering");
  return {};
}

}  // namespace speckle::coloring
