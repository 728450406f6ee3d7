// Cross-module integration tests: miniature versions of the paper's
// figure-shape claims, checked as invariants at test scale, plus the
// chromatic-scheduling property the motivating applications rely on.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/runner.hpp"
#include "coloring/seq_greedy.hpp"
#include "graph/builder.hpp"
#include "graph/suite.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using speckle::testing::IsProperColoring;
using graph::CsrGraph;
using graph::vid_t;

RunOptions scaled_options() {
  RunOptions opts;
  opts.scale_caches(64);  // suite graphs below are built at denom 64
  return opts;
}

TEST(Integration, ColorClassesAreIndependentSets) {
  // The contract chromatic scheduling builds on: within a color class, no
  // two vertices are adjacent, so the class can be processed in parallel.
  const CsrGraph g = graph::make_suite_graph("thermal2", 64);
  const RunResult r = run_scheme(Scheme::kDataLdg, g, scaled_options());
  std::vector<std::vector<vid_t>> classes(r.num_colors + 1);
  for (vid_t v = 0; v < g.num_vertices(); ++v) classes[r.coloring[v]].push_back(v);
  for (color_t c = 1; c <= r.num_colors; ++c) {
    for (vid_t v : classes[c]) {
      for (vid_t w : g.neighbors(v)) {
        ASSERT_NE(r.coloring[w], c) << "edge inside class " << c;
      }
    }
  }
}

TEST(Integration, EverySuiteGraphColorsProperlyUnderEveryPaperScheme) {
  for (const auto& entry : graph::suite_entries()) {
    const CsrGraph g = graph::make_suite_graph(entry.name, 128);
    for (Scheme s : paper_schemes()) {
      const RunResult r = run_scheme(s, g, scaled_options());
      EXPECT_TRUE(IsProperColoring(g, r.coloring))
          << entry.name << " / " << scheme_name(s);
    }
  }
}

TEST(Integration, Fig6Shape_CsrColorNeedsSeveralTimesMoreColors) {
  const CsrGraph g = graph::make_suite_graph("rmat-er", 64);
  const RunOptions opts = scaled_options();
  const auto seq = run_scheme(Scheme::kSequential, g, opts);
  const auto mis = run_scheme(Scheme::kCsrColor, g, opts);
  EXPECT_GE(mis.num_colors, 2 * seq.num_colors);
  // ...while the SGR schemes stay close to sequential.
  for (Scheme s : {Scheme::kTopoBase, Scheme::kDataBase}) {
    const auto r = run_scheme(s, g, opts);
    EXPECT_LE(r.num_colors, seq.num_colors + 4) << scheme_name(s);
  }
}

TEST(Integration, Fig7Shape_DataDrivenBeatsTopologyDriven) {
  const CsrGraph g = graph::make_suite_graph("thermal2", 64);
  const RunOptions opts = scaled_options();
  const auto topo = run_scheme(Scheme::kTopoBase, g, opts);
  const auto data = run_scheme(Scheme::kDataBase, g, opts);
  EXPECT_LT(data.model_ms, topo.model_ms);
}

TEST(Integration, Fig7Shape_GpuSchemesBeat3StepGm) {
  const CsrGraph g = graph::make_suite_graph("Hamrle3", 64);
  const RunOptions opts = scaled_options();
  const auto gm3 = run_scheme(Scheme::kGm3Step, g, opts);
  const auto data = run_scheme(Scheme::kDataBase, g, opts);
  EXPECT_LT(data.model_ms, gm3.model_ms);
}

TEST(Integration, Fig3Shape_ColoringKernelsAreMemoryLatencyBound) {
  const CsrGraph g = graph::make_suite_graph("rmat-er", 64);
  const RunResult r = run_scheme(Scheme::kTopoBase, g, scaled_options());
  const auto stalls = r.report.aggregate_stalls();
  // Memory dependency dominates every other stall class (Fig 3b)...
  const double mem = stalls.fraction(simt::Stall::kMemoryDependency);
  EXPECT_GT(mem, stalls.fraction(simt::Stall::kExecutionDependency));
  EXPECT_GT(mem, stalls.fraction(simt::Stall::kSynchronization));
  EXPECT_GT(mem, stalls.fraction(simt::Stall::kAtomic));
  // ...and achieved compute throughput is well below peak (Fig 3a).
  double busy_frac = stalls.total > 0 ? stalls.busy / stalls.total : 0;
  EXPECT_LT(busy_frac, 0.6);
}

TEST(Integration, AblationShape_ScanPushNoSlowerThanAtomics) {
  const CsrGraph g = graph::make_suite_graph("rmat-er", 64);
  const RunOptions opts = scaled_options();
  const auto scan = run_scheme(Scheme::kDataBase, g, opts);
  const auto atomics = run_scheme(Scheme::kDataAtomic, g, opts);
  EXPECT_LE(scan.model_ms, atomics.model_ms * 1.02);
}

TEST(Integration, AblationShape_LdgNeverSlower) {
  const CsrGraph g = graph::make_suite_graph("thermal2", 64);
  const RunOptions opts = scaled_options();
  const auto base = run_scheme(Scheme::kTopoBase, g, opts);
  const auto ldg = run_scheme(Scheme::kTopoLdg, g, opts);
  EXPECT_LE(ldg.model_ms, base.model_ms * 1.05);
}

TEST(Integration, SequentialBaselineIsDeterministic) {
  const CsrGraph g = graph::make_suite_graph("G3_circuit", 128);
  const RunOptions opts = scaled_options();
  const auto a = run_scheme(Scheme::kSequential, g, opts);
  const auto b = run_scheme(Scheme::kSequential, g, opts);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_DOUBLE_EQ(a.model_ms, b.model_ms);
}

}  // namespace
