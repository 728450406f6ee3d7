// Tests for the synthetic graph generators on the serial schedule
// (generate_edges_serial), including the distributional properties the
// Table I structural twins rely on, and for the ring/complete fixtures.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace speckle::graph;
using speckle::testing::complete;
using speckle::testing::ring_lattice;
using speckle::testing::spec_edges;
using speckle::testing::spec_graph;

TEST(Rmat, ProducesRequestedEdgeCount) {
  const EdgeList edges = spec_edges("rmat:scale=10,edges=5000,seed=1");
  EXPECT_EQ(edges.size(), 5000U);
  for (const Edge& e : edges) {
    EXPECT_LT(e.src, 1024U);
    EXPECT_LT(e.dst, 1024U);
  }
}

TEST(Rmat, Deterministic) {
  const EdgeList a = spec_edges("rmat:scale=8,edges=1000,seed=77");
  const EdgeList b = spec_edges("rmat:scale=8,edges=1000,seed=77");
  EXPECT_EQ(a, b);
}

TEST(Rmat, SeedChangesOutput) {
  const EdgeList a = spec_edges("rmat:scale=8,edges=1000,seed=1");
  const EdgeList b = spec_edges("rmat:scale=8,edges=1000,seed=2");
  EXPECT_NE(a, b);
}

TEST(Rmat, SkewedParametersSkewDegrees) {
  // rmat-g's (0.45,0.15,0.15,0.25) must produce a heavier-tailed degree
  // distribution than the ER-like (0.25 x4) — that is the entire point of
  // the two Table I synthetic graphs.
  const CsrGraph er_graph = spec_graph("rmat:scale=14,edges=160000,seed=5");
  const CsrGraph g_graph =
      spec_graph("rmat:scale=14,edges=160000,a=0.45,b=0.15,c=0.15,d=0.25,seed=5");
  const DegreeReport er_report = analyze_degrees(er_graph);
  const DegreeReport g_report = analyze_degrees(g_graph);
  EXPECT_GT(g_report.degree_variance, 4 * er_report.degree_variance);
  EXPECT_GT(g_report.max_degree, 2 * er_report.max_degree);
}

TEST(ErdosRenyi, RespectsRange) {
  const EdgeList edges = spec_edges("er:n=100,edges=500,seed=3");
  EXPECT_EQ(edges.size(), 500U);
  for (const Edge& e : edges) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, 100U);
    EXPECT_LT(e.dst, 100U);
  }
}

TEST(Stencil2d, InteriorDegreeIsFour) {
  const CsrGraph g = spec_graph("grid2d:nx=5,ny=5");
  EXPECT_EQ(g.degree(12), 4U);  // center
  EXPECT_EQ(g.degree(0), 2U);   // corner
  EXPECT_EQ(g.degree(2), 3U);   // edge
  EXPECT_EQ(g.num_edges(), 2U * (2 * 5 * 4));
}

TEST(Stencil3d, InteriorDegreeIsSix) {
  const CsrGraph g = spec_graph("grid3d:nx=3,ny=3,nz=3");
  EXPECT_EQ(g.degree(13), 6U);  // center of 3x3x3
  EXPECT_EQ(g.degree(0), 3U);   // corner
}

TEST(Stencil3d, EdgeCountFormula) {
  const vid_t nx = 4, ny = 5, nz = 6;
  const CsrGraph g = spec_graph("grid3d:nx=4,ny=5,nz=6");
  const eid_t undirected =
      (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1);
  EXPECT_EQ(g.num_edges(), 2 * undirected);
}

TEST(LocalDefects, AddsBoundedLocalEdges) {
  // The defect edges follow the stencil's in the edge list.
  const std::size_t before = spec_edges("grid2d:nx=10,ny=10").size();
  const EdgeList edges = spec_edges("grid2d:nx=10,ny=10,defects=1.0,window=5,seed=9");
  EXPECT_GT(edges.size(), before);
  EXPECT_LE(edges.size(), before + 100);
  for (std::size_t i = before; i < edges.size(); ++i) {
    const auto diff = static_cast<std::int64_t>(edges[i].src) -
                      static_cast<std::int64_t>(edges[i].dst);
    EXPECT_LE(std::abs(diff), 5);
    EXPECT_NE(diff, 0);
  }
}

TEST(LocalRandom, DegreeWithinWindow) {
  const CsrGraph g = spec_graph("localrand:n=1000,deglo=2,deghi=6,window=50,seed=4");
  const DegreeReport report = analyze_degrees(g);
  // Initiated degree U[2,6] symmetrized: mean ~= 8 before dedup.
  EXPECT_GT(report.avg_degree, 5.0);
  EXPECT_LT(report.avg_degree, 9.0);
  for (vid_t v = 0; v < 1000; ++v) {
    for (vid_t w : g.neighbors(v)) {
      EXPECT_LE(std::abs(static_cast<std::int64_t>(v) - static_cast<std::int64_t>(w)),
                50);
    }
  }
}

TEST(RingLattice, UniformDegree) {
  const CsrGraph g = build_csr(20, ring_lattice(20, 3));
  for (vid_t v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 6U);
}

TEST(Complete, AllPairs) {
  const CsrGraph g = build_csr(6, complete(6));
  EXPECT_EQ(g.num_edges(), 30U);
  for (vid_t v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5U);
}

TEST(Analysis, ComponentsAndIsolated) {
  // Two triangles and two isolated vertices.
  const CsrGraph g =
      build_csr(8, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  EXPECT_EQ(count_components(g), 4U);
  EXPECT_EQ(count_isolated(g), 2U);
}

TEST(Analysis, DegreeReportOnStencil) {
  const CsrGraph g = spec_graph("grid2d:nx=5,ny=5");
  const DegreeReport r = analyze_degrees(g);
  EXPECT_EQ(r.min_degree, 2U);
  EXPECT_EQ(r.max_degree, 4U);
  EXPECT_NEAR(r.avg_degree, static_cast<double>(g.num_edges()) / 25.0, 1e-12);
  EXPECT_GT(r.degree_variance, 0.0);
}

}  // namespace
