// Vertex relabeling tests.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/permute.hpp"
#include "graph_fixtures.hpp"
#include "support/rng.hpp"

namespace {

using namespace speckle::graph;
using speckle::testing::spec_graph;

TEST(Permute, IdentityIsNoOp) {
  const CsrGraph g = build_csr(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<vid_t> identity = {0, 1, 2, 3};
  const CsrGraph h = permute(g, identity);
  for (vid_t v = 0; v < 4; ++v) {
    EXPECT_EQ(h.degree(v), g.degree(v));
  }
  EXPECT_TRUE(h.has_edge(0, 1));
}

TEST(Permute, RelabelsAdjacency) {
  const CsrGraph g = build_csr(3, {{0, 1}});
  const std::vector<vid_t> perm = {2, 0, 1};  // 0->2, 1->0
  const CsrGraph h = permute(g, perm);
  EXPECT_TRUE(h.has_edge(2, 0));
  EXPECT_FALSE(h.has_edge(0, 1));
  EXPECT_EQ(h.degree(1), 0U);  // old vertex 2 was isolated
}

TEST(Permute, PreservesDegreeMultiset) {
  const CsrGraph g = spec_graph("er:n=200,edges=600,seed=7");
  const CsrGraph h = permute_random(g, 13);
  std::vector<vid_t> dg, dh;
  for (vid_t v = 0; v < 200; ++v) {
    dg.push_back(g.degree(v));
    dh.push_back(h.degree(v));
  }
  std::sort(dg.begin(), dg.end());
  std::sort(dh.begin(), dh.end());
  EXPECT_EQ(dg, dh);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_TRUE(h.is_symmetric());
}

TEST(Permute, EdgesMapExactly) {
  const CsrGraph g = spec_graph("er:n=50,edges=120,seed=3");
  const auto perm_vec = speckle::support::random_permutation(50, 4);
  const CsrGraph h = permute(g, std::span<const vid_t>(perm_vec));
  for (vid_t v = 0; v < 50; ++v) {
    for (vid_t w : g.neighbors(v)) {
      EXPECT_TRUE(h.has_edge(perm_vec[v], perm_vec[w]));
    }
  }
}

TEST(PermuteDeathTest, RejectsNonPermutation) {
  const CsrGraph g = build_csr(3, {{0, 1}});
  const std::vector<vid_t> dup = {0, 0, 1};
  EXPECT_DEATH(permute(g, dup), "not a permutation");
  const std::vector<vid_t> short_perm = {0, 1};
  EXPECT_DEATH(permute(g, short_perm), "size");
}

}  // namespace
