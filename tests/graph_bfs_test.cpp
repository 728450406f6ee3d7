// BFS oracle tests.

#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace speckle::graph;
using speckle::testing::ring_lattice;
using speckle::testing::spec_graph;

TEST(Bfs, PathDistances) {
  const CsrGraph g = build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto dist = bfs_distances(g, 0);
  for (vid_t v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, UnreachableMarked) {
  const CsrGraph g = build_csr(4, {{0, 1}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1U);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, GridDistanceIsManhattan) {
  const vid_t nx = 7, ny = 7;
  const CsrGraph g = spec_graph("grid2d:nx=7,ny=7");
  const auto dist = bfs_distances(g, 0);
  for (vid_t y = 0; y < ny; ++y) {
    for (vid_t x = 0; x < nx; ++x) {
      EXPECT_EQ(dist[y * nx + x], x + y);
    }
  }
}

TEST(Bfs, NeighborhoodRadiusTwo) {
  // Star: every leaf is within distance 2 of every other leaf.
  EdgeList edges;
  for (vid_t v = 1; v < 10; ++v) edges.push_back({0, v});
  const CsrGraph g = build_csr(10, edges);
  const auto hood = neighborhood(g, 3, 2);
  EXPECT_EQ(hood.size(), 9U);  // the center plus the 8 other leaves
  const auto hood1 = neighborhood(g, 3, 1);
  EXPECT_EQ(hood1.size(), 1U);  // just the center
}

TEST(Bfs, EccentricityOfRing) {
  const CsrGraph g = build_csr(10, ring_lattice(10, 1));
  EXPECT_EQ(eccentricity(g, 0), 5U);
}

TEST(BfsDeathTest, SourceOutOfRange) {
  const CsrGraph g = build_csr(2, {{0, 1}});
  EXPECT_DEATH(bfs_distances(g, 5), "out of range");
}

}  // namespace
