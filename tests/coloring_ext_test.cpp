// Extension-scheme tests: warp-centric D-warp, largest-degree-first D-ldf,
// and 3-step GM option coverage.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/gm3step.hpp"
#include "coloring/runner.hpp"
#include "coloring/seq_greedy.hpp"
#include "coloring/warp.hpp"
#include "graph/builder.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using speckle::testing::IsProperColoring;
using speckle::testing::complete;
using speckle::testing::spec_graph;
using graph::build_csr;
using graph::CsrGraph;
using graph::vid_t;

struct GraphCase {
  const char* name;
  CsrGraph (*make)();
};

// Without this gtest prints the case as raw bytes, pointers included, so the
// listed test names would change with every address-space layout.
void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

CsrGraph ext_er() { return spec_graph("er:n=1500,edges=12000,seed=7"); }
CsrGraph ext_skew() {
  return spec_graph("rmat:scale=11,edges=14000,a=0.5,b=0.15,c=0.15,d=0.2,seed=5");
}
CsrGraph ext_grid() { return spec_graph("grid3d:nx=11,ny=11,nz=11"); }
CsrGraph ext_star() {
  graph::EdgeList edges;
  for (vid_t v = 1; v < 500; ++v) edges.push_back({0, v});
  return build_csr(500, edges);
}
CsrGraph ext_clique() { return build_csr(70, complete(70)); }

class ExtSweep : public ::testing::TestWithParam<std::tuple<GraphCase, Scheme>> {};

TEST_P(ExtSweep, ProperColoring) {
  const auto& [graph_case, scheme] = GetParam();
  const CsrGraph g = graph_case.make();
  const RunResult r = run_scheme(scheme, g);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  EXPECT_LE(r.num_colors, g.max_degree() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    ExtSchemes, ExtSweep,
    ::testing::Combine(
        ::testing::Values(GraphCase{"er", ext_er}, GraphCase{"skew", ext_skew},
                          GraphCase{"grid", ext_grid}, GraphCase{"star", ext_star},
                          GraphCase{"clique", ext_clique}),
        ::testing::Values(Scheme::kDataWarp, Scheme::kDataLdf)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             (std::get<1>(info.param) == Scheme::kDataWarp ? "warp" : "ldf");
    });

TEST(DataWarp, CliqueExercisesWideWindowFallback) {
  // 70-clique: every vertex's forbidden set eventually exceeds the 64-color
  // cooperative window, forcing the lane-0 wide-window fallback.
  const CsrGraph g = ext_clique();
  const RunResult r = run_scheme(Scheme::kDataWarp, g);
  EXPECT_EQ(r.num_colors, 70U);
}

TEST(DataWarp, BlockSizeMustBeWarpMultiple) {
  const CsrGraph g = ext_er();
  RunOptions opts;
  opts.block_size = 48;
  EXPECT_DEATH(run_scheme(Scheme::kDataWarp, g, opts), "warp-multiple");
}

TEST(DataWarp, WorksAcrossBlockSizes) {
  const CsrGraph g = ext_skew();
  for (std::uint32_t block : {32U, 128U, 256U, 1024U}) {
    RunOptions opts;
    opts.block_size = block;
    const RunResult r = run_scheme(Scheme::kDataWarp, g, opts);
    EXPECT_TRUE(IsProperColoring(g, r.coloring)) << block;
  }
}

TEST(DataLdf, QualityAtLeastMatchesBaseOnSkewedGraph) {
  // The LDF tie-break lets hubs keep low colors; on skewed graphs it should
  // not be worse than the id tie-break (and is typically a little better).
  const CsrGraph g = ext_skew();
  const RunResult base = run_scheme(Scheme::kDataBase, g);
  const RunResult ldf = run_scheme(Scheme::kDataLdf, g);
  EXPECT_LE(ldf.num_colors, base.num_colors + 1);
}

TEST(DataLdf, Deterministic) {
  const CsrGraph g = ext_er();
  EXPECT_EQ(run_scheme(Scheme::kDataLdf, g).coloring,
            run_scheme(Scheme::kDataLdf, g).coloring);
}

TEST(Gm3Step, SinglePartitionIsSequentialOnDevice) {
  // One partition = one thread colors everything: no conflicts possible.
  const CsrGraph g = spec_graph("er:n=128,edges=512,seed=3");
  static_assert(kGm3PartitionSize == 128);
  const Gm3Result r = gm3step_color(g);
  EXPECT_EQ(r.cpu_resolved, 0U);
  const auto seq = seq_greedy(g, {.charge_model = false});
  EXPECT_EQ(r.num_colors, seq.num_colors);
}

}  // namespace
