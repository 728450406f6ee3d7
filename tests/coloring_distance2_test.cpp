// Distance-2 coloring tests: verification semantics, sequential greedy,
// and the speculative GPU scheme.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/distance2.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using speckle::testing::IsProperColoring;
using speckle::testing::ring_lattice;
using speckle::testing::spec_graph;
using graph::build_csr;
using graph::CsrGraph;
using graph::vid_t;

TEST(VerifyD2, RejectsDistanceTwoClash) {
  // Path 0-1-2: vertices 0 and 2 are at distance 2.
  const CsrGraph g = build_csr(3, {{0, 1}, {1, 2}});
  Coloring d1_ok_d2_bad = {1, 2, 1};
  EXPECT_FALSE(verify_coloring_d2(g, d1_ok_d2_bad).proper);
  Coloring ok = {1, 2, 3};
  EXPECT_TRUE(verify_coloring_d2(g, ok).proper);
}

TEST(SeqD2, PathNeedsThreeColors) {
  const CsrGraph g = build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const SeqD2Result r = seq_greedy_d2(g);
  EXPECT_TRUE(verify_coloring_d2(g, r.coloring).proper);
  EXPECT_EQ(r.num_colors, 3U);
}

TEST(SeqD2, StarNeedsNColors) {
  // All leaves of a star are pairwise at distance 2: n colors.
  graph::EdgeList edges;
  for (vid_t v = 1; v < 20; ++v) edges.push_back({0, v});
  const CsrGraph g = build_csr(20, edges);
  const SeqD2Result r = seq_greedy_d2(g);
  EXPECT_TRUE(verify_coloring_d2(g, r.coloring).proper);
  EXPECT_EQ(r.num_colors, 20U);
}

TEST(SeqD2, GridUsesAtLeastFive) {
  // Interior 2D stencil vertices have 4 distance-1 + 4+ distance-2 peers.
  const CsrGraph g = spec_graph("grid2d:nx=10,ny=10");
  const SeqD2Result r = seq_greedy_d2(g);
  EXPECT_TRUE(verify_coloring_d2(g, r.coloring).proper);
  EXPECT_GE(r.num_colors, 5U);
}

struct D2Case {
  const char* name;
  CsrGraph (*make)();
};

// Without this gtest prints the case as raw bytes, pointers included, so the
// listed test names would change with every address-space layout.
void PrintTo(const D2Case& c, std::ostream* os) { *os << c.name; }

CsrGraph d2_er() { return spec_graph("er:n=400,edges=1600,seed=7"); }
CsrGraph d2_grid() { return spec_graph("grid2d:nx=15,ny=15"); }
CsrGraph d2_grid3() { return spec_graph("grid3d:nx=7,ny=7,nz=7"); }
CsrGraph d2_local() { return spec_graph("localrand:n=500,deglo=1,deghi=5,window=40,seed=3"); }
CsrGraph d2_ring() { return build_csr(301, ring_lattice(301, 2)); }

class GpuD2Sweep : public ::testing::TestWithParam<D2Case> {};

TEST_P(GpuD2Sweep, ProperAndCloseToSequential) {
  const CsrGraph g = GetParam().make();
  const SeqD2Result seq = seq_greedy_d2(g);
  const GpuResult gpu = topo_color_d2(g);
  EXPECT_TRUE(verify_coloring_d2(g, gpu.coloring).proper) << GetParam().name;
  EXPECT_GE(gpu.iterations, 1U);
  // Speculative quality tracks the sequential greedy loosely.
  EXPECT_LE(gpu.num_colors, 2 * seq.num_colors) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, GpuD2Sweep,
    ::testing::Values(D2Case{"er", d2_er}, D2Case{"grid", d2_grid},
                      D2Case{"grid3", d2_grid3}, D2Case{"local", d2_local},
                      D2Case{"ring", d2_ring}),
    [](const ::testing::TestParamInfo<D2Case>& info) { return info.param.name; });

TEST(GpuD2, DistanceTwoStrongerThanDistanceOne) {
  // Every valid D2 coloring is a valid D1 coloring, and needs >= as many
  // colors as the D1 greedy on the same graph.
  const CsrGraph g = d2_grid();
  const GpuResult gpu = topo_color_d2(g);
  EXPECT_TRUE(IsProperColoring(g, gpu.coloring));
  EXPECT_GE(gpu.num_colors, 5U);
}

TEST(GpuD2, Deterministic) {
  const CsrGraph g = d2_er();
  const GpuResult a = topo_color_d2(g);
  const GpuResult b = topo_color_d2(g);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.model_ms, b.model_ms);
}

TEST(GpuD2, BfsOracleConfirmsDistanceTwoProperty) {
  // Independent oracle: for every vertex, no vertex within BFS radius 2
  // shares its color.
  const CsrGraph g = d2_local();
  const GpuResult r = topo_color_d2(g);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t u : graph::neighborhood(g, v, 2)) {
      ASSERT_NE(r.coloring[v], r.coloring[u]) << v << " vs " << u;
    }
  }
}

TEST(GpuD2, EmptyGraph) {
  const GpuResult r = topo_color_d2(CsrGraph());
  EXPECT_EQ(r.num_colors, 0U);
}

}  // namespace
