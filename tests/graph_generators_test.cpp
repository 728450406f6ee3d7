// Tests for the synthetic graph generators, including the distributional
// properties the Table I structural twins rely on.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

using namespace speckle::graph;

TEST(Rmat, ProducesRequestedEdgeCount) {
  const EdgeList edges = rmat(10, 5000, RmatParams{}, 1);
  EXPECT_EQ(edges.size(), 5000U);
  for (const Edge& e : edges) {
    EXPECT_LT(e.src, 1024U);
    EXPECT_LT(e.dst, 1024U);
  }
}

TEST(Rmat, Deterministic) {
  const EdgeList a = rmat(8, 1000, RmatParams{}, 77);
  const EdgeList b = rmat(8, 1000, RmatParams{}, 77);
  EXPECT_EQ(a, b);
}

TEST(Rmat, SeedChangesOutput) {
  const EdgeList a = rmat(8, 1000, RmatParams{}, 1);
  const EdgeList b = rmat(8, 1000, RmatParams{}, 2);
  EXPECT_NE(a, b);
}

TEST(Rmat, SkewedParametersSkewDegrees) {
  // rmat-g's (0.45,0.15,0.15,0.25) must produce a heavier-tailed degree
  // distribution than the ER-like (0.25 x4) — that is the entire point of
  // the two Table I synthetic graphs.
  const RmatParams er{};
  const RmatParams g_params{0.45, 0.15, 0.15, 0.25, 0.1};
  const CsrGraph er_graph = build_csr(1 << 14, rmat(14, 160000, er, 5));
  const CsrGraph g_graph = build_csr(1 << 14, rmat(14, 160000, g_params, 5));
  const DegreeReport er_report = analyze_degrees(er_graph);
  const DegreeReport g_report = analyze_degrees(g_graph);
  EXPECT_GT(g_report.degree_variance, 4 * er_report.degree_variance);
  EXPECT_GT(g_report.max_degree, 2 * er_report.max_degree);
}

TEST(ErdosRenyi, RespectsRange) {
  const EdgeList edges = erdos_renyi(100, 500, 3);
  EXPECT_EQ(edges.size(), 500U);
  for (const Edge& e : edges) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, 100U);
    EXPECT_LT(e.dst, 100U);
  }
}

TEST(Stencil2d, InteriorDegreeIsFour) {
  const CsrGraph g = build_csr(25, stencil2d(5, 5));
  EXPECT_EQ(g.degree(12), 4U);  // center
  EXPECT_EQ(g.degree(0), 2U);   // corner
  EXPECT_EQ(g.degree(2), 3U);   // edge
  EXPECT_EQ(g.num_edges(), 2U * (2 * 5 * 4));
}

TEST(Stencil3d, InteriorDegreeIsSix) {
  const CsrGraph g = build_csr(27, stencil3d(3, 3, 3));
  EXPECT_EQ(g.degree(13), 6U);  // center of 3x3x3
  EXPECT_EQ(g.degree(0), 3U);   // corner
}

TEST(Stencil3d, EdgeCountFormula) {
  const vid_t nx = 4, ny = 5, nz = 6;
  const CsrGraph g = build_csr(nx * ny * nz, stencil3d(nx, ny, nz));
  const eid_t undirected =
      (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1);
  EXPECT_EQ(g.num_edges(), 2 * undirected);
}

TEST(LocalDefects, AddsBoundedLocalEdges) {
  EdgeList edges = stencil2d(10, 10);
  const std::size_t before = edges.size();
  add_local_defects(edges, 100, 1.0, 5, 9);
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
  const CsrGraph g = build_csr(1000, local_random(1000, 2, 6, 50, 4));
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
  const CsrGraph g = build_csr(25, stencil2d(5, 5));
  const DegreeReport r = analyze_degrees(g);
  EXPECT_EQ(r.min_degree, 2U);
  EXPECT_EQ(r.max_degree, 4U);
  EXPECT_NEAR(r.avg_degree, static_cast<double>(g.num_edges()) / 25.0, 1e-12);
  EXPECT_GT(r.degree_variance, 0.0);
}

}  // namespace
