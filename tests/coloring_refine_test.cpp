// Iterated-greedy refinement tests.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/refine.hpp"
#include "coloring/runner.hpp"
#include "coloring/seq_greedy.hpp"
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

TEST(Refine, NeverIncreasesColorsAndStaysProper) {
  const CsrGraph g = spec_graph("er:n=1200,edges=9000,seed=3");
  const auto seq = seq_greedy(g, {.charge_model = false});
  const RefineResult r = iterated_greedy(g, seq.coloring);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  EXPECT_LE(r.colors_after, r.colors_before);
}

TEST(Refine, ImprovesDeliberatelyBadColoring) {
  // A bipartite graph colored with one color per vertex: refinement must
  // collapse this dramatically (to at most a handful of classes).
  const CsrGraph g = spec_graph("grid2d:nx=8,ny=8");
  Coloring wasteful(64);
  for (vid_t v = 0; v < 64; ++v) wasteful[v] = v + 1;
  const RefineResult r = iterated_greedy(g, wasteful, {.rounds = 8});
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  EXPECT_EQ(r.colors_before, 64U);
  EXPECT_LE(r.colors_after, 4U);
}

TEST(Refine, RecoversSpeculationLossOnSkewedGraph) {
  // D-base loses a couple of colors to speculation on rmat-g-like graphs;
  // a refinement pass should claw most of that back.
  const CsrGraph g = spec_graph("rmat:scale=11,edges=14000,a=0.5,b=0.15,c=0.15,d=0.2,seed=5");
  const RunResult gpu = run_scheme(Scheme::kDataBase, g);
  const auto seq = seq_greedy(g, {.charge_model = false});
  const RefineResult r = iterated_greedy(g, gpu.coloring);
  EXPECT_LE(r.colors_after, gpu.num_colors);
  EXPECT_LE(r.colors_after, seq.num_colors + 2);
}

TEST(Refine, StopsEarlyWhenConverged) {
  const CsrGraph g = build_csr(10, ring_lattice(10, 1));
  const auto seq = seq_greedy(g, {.charge_model = false});  // already 2 colors
  const RefineResult r = iterated_greedy(g, seq.coloring, {.rounds = 100});
  EXPECT_LE(r.rounds_run, 1U);
  EXPECT_EQ(r.colors_after, 2U);
}

TEST(RefineDeathTest, RejectsImproperInput) {
  const CsrGraph g = build_csr(2, {{0, 1}});
  Coloring bad = {1, 1};
  EXPECT_DEATH(iterated_greedy(g, bad), "proper");
}

}  // namespace
