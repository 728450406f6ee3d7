#include "graph/builder.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace speckle::graph {

CsrGraph build_csr(vid_t num_vertices, EdgeList edges) {
  for (const Edge& e : edges) {
    SPECKLE_CHECK(e.src < num_vertices && e.dst < num_vertices,
                  "edge endpoint out of range");
  }
  const std::size_t original = edges.size();
  edges.reserve(original * 2);
  for (std::size_t i = 0; i < original; ++i) {
    edges.push_back({edges[i].dst, edges[i].src});
  }
  std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<eid_t> row_offsets(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) ++row_offsets[e.src + 1];
  for (std::size_t i = 1; i < row_offsets.size(); ++i) {
    row_offsets[i] += row_offsets[i - 1];
  }
  std::vector<vid_t> col_indices(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) col_indices[i] = edges[i].dst;
  return CsrGraph(std::move(row_offsets), std::move(col_indices));
}

}  // namespace speckle::graph
