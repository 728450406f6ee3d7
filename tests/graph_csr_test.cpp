// Unit tests for the CSR graph container and the edge-list builder.

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"

namespace {

using namespace speckle::graph;

CsrGraph triangle() { return build_csr(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(CsrGraph, EmptyGraph) {
  CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0U);
  EXPECT_EQ(g.num_edges(), 0U);
}

TEST(CsrGraph, TriangleStructure) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3U);
  EXPECT_EQ(g.num_edges(), 6U);  // symmetrized
  EXPECT_EQ(g.degree(0), 2U);
  EXPECT_EQ(g.degree(1), 2U);
  EXPECT_EQ(g.degree(2), 2U);
  EXPECT_EQ(g.max_degree(), 2U);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(CsrGraph, NeighborsAreSorted) {
  const CsrGraph g = build_csr(4, {{3, 0}, {3, 2}, {3, 1}});
  const auto adj = g.neighbors(3);
  ASSERT_EQ(adj.size(), 3U);
  EXPECT_EQ(adj[0], 0U);
  EXPECT_EQ(adj[1], 1U);
  EXPECT_EQ(adj[2], 2U);
}

TEST(CsrGraph, HasEdge) {
  const CsrGraph g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(CsrGraph, ByteSizeMatchesArrays) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.byte_size(), 4 * sizeof(eid_t) + 6 * sizeof(vid_t));
}

TEST(Builder, RemovesSelfLoops) {
  const CsrGraph g = build_csr(3, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 2U);  // only 0-1 both ways
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Builder, RemovesDuplicates) {
  const CsrGraph g = build_csr(2, {{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.num_edges(), 2U);
}

TEST(Builder, IsolatedVerticesAllowed) {
  const CsrGraph g = build_csr(5, {{0, 1}});
  EXPECT_EQ(g.degree(4), 0U);
  EXPECT_EQ(g.neighbors(4).size(), 0U);
}

TEST(BuilderDeathTest, RejectsOutOfRangeEndpoint) {
  EXPECT_DEATH(build_csr(2, {{0, 5}}), "out of range");
}

TEST(CsrGraphDeathTest, RejectsBadOffsets) {
  EXPECT_DEATH(CsrGraph({0, 2, 1, 2}, {1, 2}), "non-decreasing");
  EXPECT_DEATH(CsrGraph({0, 1}, {5}), "out of range");
  EXPECT_DEATH(CsrGraph({0, 1}, {0}), "self loop");
}

}  // namespace
