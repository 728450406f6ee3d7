// CPU-parallel references: Jones–Plassmann and the OpenMP GM scheme.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/gm_omp.hpp"
#include "coloring/jp.hpp"
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

struct GraphCase {
  const char* name;
  CsrGraph (*make)();
};

// Without this gtest prints the case as raw bytes, pointers included, so the
// listed test names would change with every address-space layout.
void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

CsrGraph make_er() { return spec_graph("er:n=600,edges=4200,seed=7"); }
CsrGraph make_grid() { return spec_graph("grid2d:nx=20,ny=20"); }
CsrGraph make_rmat() {
  return spec_graph("rmat:scale=10,edges=6000,a=0.45,b=0.15,c=0.15,d=0.25,seed=3");
}
CsrGraph make_ring() { return build_csr(501, ring_lattice(501, 2)); }
CsrGraph make_local() { return spec_graph("localrand:n=800,deglo=1,deghi=7,window=60,seed=11"); }

class ParallelCpuSweep : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ParallelCpuSweep, JonesPlassmannIsProper) {
  const CsrGraph g = GetParam().make();
  const JpResult r = jones_plassmann(g);
  EXPECT_TRUE(IsProperColoring(g, r.coloring)) << GetParam().name;
  EXPECT_GE(r.rounds, 1U);
  EXPECT_EQ(r.num_colors, r.rounds);  // JP assigns one color per round
}

TEST_P(ParallelCpuSweep, GmOpenMpIsProper) {
  const CsrGraph g = GetParam().make();
  const GmOmpResult r = gm_openmp(g);
  EXPECT_TRUE(IsProperColoring(g, r.coloring)) << GetParam().name;
  EXPECT_LE(r.num_colors, g.max_degree() + 1);
}

TEST_P(ParallelCpuSweep, GmOmpQualityTracksSequential) {
  // The speculative scheme's selling point: colors close to sequential
  // greedy (within 2x is a loose but meaningful envelope; typically equal).
  const CsrGraph g = GetParam().make();
  const auto seq = seq_greedy(g, {.charge_model = false});
  const auto gm = gm_openmp(g);
  EXPECT_LE(gm.num_colors, 2 * seq.num_colors) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ParallelCpuSweep,
    ::testing::Values(GraphCase{"er", make_er}, GraphCase{"grid", make_grid},
                      GraphCase{"rmat", make_rmat}, GraphCase{"ring", make_ring},
                      GraphCase{"local", make_local}),
    [](const ::testing::TestParamInfo<GraphCase>& info) { return info.param.name; });

TEST(JonesPlassmann, DeterministicForSeed) {
  const CsrGraph g = make_er();
  const JpResult a = jones_plassmann(g, {.seed = 5});
  const JpResult b = jones_plassmann(g, {.seed = 5});
  EXPECT_EQ(a.coloring, b.coloring);
}

TEST(JonesPlassmann, SeedChangesColoring) {
  const CsrGraph g = make_er();
  const JpResult a = jones_plassmann(g, {.seed = 5});
  const JpResult b = jones_plassmann(g, {.seed = 6});
  EXPECT_NE(a.coloring, b.coloring);
}

TEST(JonesPlassmann, EmptyGraph) {
  const JpResult r = jones_plassmann(CsrGraph());
  EXPECT_EQ(r.num_colors, 0U);
  EXPECT_EQ(r.rounds, 0U);
}

TEST(GmOpenMp, SingleThreadHasNoConflicts) {
  const CsrGraph g = make_er();
  const GmOmpResult r = gm_openmp(g, {.num_threads = 1});
  // One thread colors sequentially: speculation never conflicts.
  EXPECT_EQ(r.total_conflicts, 0U);
  EXPECT_EQ(r.rounds, 1U);
}

TEST(GmOpenMp, MatchesSequentialWhenSingleThreaded) {
  const CsrGraph g = make_grid();
  const auto seq = seq_greedy(g, {.charge_model = false});
  const GmOmpResult gm = gm_openmp(g, {.num_threads = 1});
  EXPECT_EQ(gm.coloring, seq.coloring);
}

}  // namespace
