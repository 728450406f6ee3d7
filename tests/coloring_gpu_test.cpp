// GPU-sim coloring schemes: correctness on a sweep of graph families,
// determinism, cross-checks between variants, and cost-model invariants.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/csrcolor.hpp"
#include "coloring/data.hpp"
#include "coloring/gm3step.hpp"
#include "coloring/runner.hpp"
#include "coloring/seq_greedy.hpp"
#include "coloring/topo.hpp"
#include "graph/builder.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using speckle::testing::IsProperColoring;
using speckle::testing::spec_graph;
using graph::build_csr;
using graph::CsrGraph;
using graph::vid_t;

struct GraphCase {
  const char* name;
  CsrGraph (*make)();
};

CsrGraph make_er() { return spec_graph("er:n=2000,edges=16000,seed=7"); }
CsrGraph make_grid2d() { return spec_graph("grid2d:nx=40,ny=40"); }
CsrGraph make_grid3d() { return spec_graph("grid3d:nx=12,ny=12,nz=12"); }
CsrGraph make_rmat() {
  return spec_graph("rmat:scale=11,edges=12000,a=0.45,b=0.15,c=0.15,d=0.25,seed=9");
}
CsrGraph make_local() { return spec_graph("localrand:n=2500,deglo=1,deghi=7,window=100,seed=4"); }
CsrGraph make_sparse() { return spec_graph("er:n=3000,edges=3000,seed=2"); }
CsrGraph make_star() {
  graph::EdgeList edges;
  for (vid_t v = 1; v < 300; ++v) edges.push_back({0, v});
  return build_csr(300, edges);
}

const GraphCase kCases[] = {
    {"er", make_er},         {"grid2d", make_grid2d}, {"grid3d", make_grid3d},
    {"rmat", make_rmat},     {"local", make_local},   {"sparse", make_sparse},
    {"star", make_star},
};

class GpuSchemeSweep
    : public ::testing::TestWithParam<std::tuple<GraphCase, Scheme>> {};

TEST_P(GpuSchemeSweep, ProperColoringWithinDegreeBound) {
  const auto& [graph_case, scheme] = GetParam();
  const CsrGraph g = graph_case.make();
  // run_scheme aborts internally on improper colorings; re-verify here.
  const RunResult r = run_scheme(scheme, g);
  EXPECT_GE(r.iterations, 1U);
  EXPECT_GT(r.model_ms, 0.0);
  if (scheme != Scheme::kCsrColor) {
    // Greedy-family schemes respect the max-degree+1 bound.
    EXPECT_TRUE(speckle::testing::IsGreedyColoring(g, r.coloring))
        << scheme_name(scheme);
  } else {
    EXPECT_TRUE(IsProperColoring(g, r.coloring));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTimesGraphs, GpuSchemeSweep,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(Scheme::kGm3Step, Scheme::kTopoBase,
                                         Scheme::kTopoLdg, Scheme::kDataBase,
                                         Scheme::kDataLdg, Scheme::kCsrColor,
                                         Scheme::kDataAtomic)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             [](const char* s) {
               std::string out;
               for (const char* p = s; *p; ++p) out += std::isalnum(*p) ? *p : '_';
               return out;
             }(scheme_name(std::get<1>(info.param)));
    });

TEST(GpuSchemes, DeterministicAcrossRuns) {
  const CsrGraph g = make_rmat();
  for (Scheme s : {Scheme::kTopoBase, Scheme::kDataBase, Scheme::kCsrColor}) {
    const RunResult a = run_scheme(s, g);
    const RunResult b = run_scheme(s, g);
    EXPECT_EQ(a.coloring, b.coloring) << scheme_name(s);
    EXPECT_EQ(a.model_ms, b.model_ms) << scheme_name(s);
  }
}

TEST(GpuSchemes, LdgVariantsColorIdentically) {
  // __ldg changes the data path, not the data: T-ldg/D-ldg must reproduce
  // T-base/D-base's coloring exactly.
  const CsrGraph g = make_er();
  EXPECT_EQ(run_scheme(Scheme::kTopoBase, g).coloring,
            run_scheme(Scheme::kTopoLdg, g).coloring);
  EXPECT_EQ(run_scheme(Scheme::kDataBase, g).coloring,
            run_scheme(Scheme::kDataLdg, g).coloring);
}

TEST(GpuSchemes, ScanAndAtomicPushColorIdentically) {
  const CsrGraph g = make_grid3d();
  const RunResult scan = run_scheme(Scheme::kDataBase, g);
  const RunResult atomic = run_scheme(Scheme::kDataAtomic, g);
  EXPECT_EQ(scan.coloring, atomic.coloring);
  EXPECT_EQ(scan.iterations, atomic.iterations);
}

TEST(GpuSchemes, ScanPushUsesFewerAtomics) {
  const CsrGraph g = make_grid3d();
  const RunResult scan = run_scheme(Scheme::kDataBase, g);
  const RunResult atomic = run_scheme(Scheme::kDataAtomic, g);
  std::uint64_t scan_atomics = 0, atomic_atomics = 0;
  for (const auto& k : scan.report.kernels) scan_atomics += k.atomics;
  for (const auto& k : atomic.report.kernels) atomic_atomics += k.atomics;
  EXPECT_LE(scan_atomics, atomic_atomics);
}

TEST(JpGpu, OneColorPerPassAndProper) {
  // Classic Jones–Plassmann: one independent set (hence one color) per
  // pass, so colors == iterations; csrcolor's multi-hash breaks that link.
  const CsrGraph g = make_er();
  const RunResult jp = run_scheme(Scheme::kJpGpu, g);
  EXPECT_TRUE(IsProperColoring(g, jp.coloring));
  EXPECT_EQ(jp.num_colors, jp.iterations);
  const RunResult multi = run_scheme(Scheme::kCsrColor, g);
  EXPECT_LT(multi.iterations, jp.iterations);
}

TEST(JpGpu, MatchesCpuReferenceWithSameOptions) {
  const CsrGraph g = make_grid3d();
  CsrColorOptions opts;
  opts.num_hashes = 1;
  opts.use_min_sets = false;
  const GpuResult gpu = csrcolor(g, opts);
  const CsrColorCpuResult cpu = csrcolor_cpu(g, opts);
  EXPECT_EQ(gpu.coloring, cpu.coloring);
}

TEST(CsrColor, GpuMatchesCpuReference) {
  const CsrGraph g = make_er();
  CsrColorOptions opts;
  const GpuResult gpu = csrcolor(g, opts);
  const CsrColorCpuResult cpu = csrcolor_cpu(g, opts);
  EXPECT_EQ(gpu.coloring, cpu.coloring);
  EXPECT_EQ(gpu.iterations, cpu.passes);
}

TEST(CsrColor, UsesMoreColorsThanGreedy) {
  // Fig 6's headline: the MIS scheme trades colors for speed.
  const CsrGraph g = make_er();
  const auto greedy = seq_greedy(g, {.charge_model = false});
  const CsrColorCpuResult mis = csrcolor_cpu(g);
  EXPECT_GT(mis.num_colors, greedy.num_colors);
}

TEST(CsrColor, HashIsStableAndSpread) {
  const auto a = csrcolor_hash(1, 0, 42);
  EXPECT_EQ(a, csrcolor_hash(1, 0, 42));
  EXPECT_NE(a, csrcolor_hash(1, 1, 42));
  EXPECT_NE(a, csrcolor_hash(2, 0, 42));
  EXPECT_NE(a, csrcolor_hash(1, 0, 43));
}

TEST(Gm3Step, ReportsCpuResolution) {
  const CsrGraph g = make_er();
  const Gm3Result r = gm3step_color(g);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  // The whole point of step 3: some conflicts survive the GPU rounds on a
  // random graph and must be fixed sequentially.
  EXPECT_GT(r.cpu_resolved, 0U);
  EXPECT_GT(r.cpu_ms, 0.0);
  // And the color array crossed PCIe both ways.
  EXPECT_GE(r.report.d2h.bytes, g.num_vertices() * sizeof(color_t));
  EXPECT_GE(r.report.h2d.bytes, g.num_vertices() * sizeof(color_t));
}

TEST(GpuSchemes, TopoIterationsAtLeastTwo) {
  // Algorithm 4 always needs a final no-op round to observe quiescence.
  const CsrGraph g = make_grid2d();
  const RunResult r = run_scheme(Scheme::kTopoBase, g);
  EXPECT_GE(r.iterations, 2U);
}

TEST(GpuSchemes, SpeculationQualityCloseToSequential) {
  // Fig 6: all SGR schemes use a similar number of colors.
  const CsrGraph g = make_er();
  const auto seq = seq_greedy(g, {.charge_model = false});
  for (Scheme s : {Scheme::kTopoBase, Scheme::kDataBase, Scheme::kGm3Step}) {
    const RunResult r = run_scheme(s, g);
    EXPECT_LE(r.num_colors, seq.num_colors + 4) << scheme_name(s);
  }
}

TEST(GpuSchemes, BlockSizeChangesTimingNotColoringValidity) {
  const CsrGraph g = make_grid3d();
  for (std::uint32_t block : {32U, 64U, 128U, 256U, 512U, 1024U}) {
    RunOptions opts;
    opts.block_size = block;
    const RunResult r = run_scheme(Scheme::kDataBase, g, opts);
    EXPECT_TRUE(IsProperColoring(g, r.coloring)) << block;
  }
}

TEST(Runner, SchemeNamesRoundTrip) {
  for (Scheme s : all_schemes()) {
    EXPECT_EQ(find_scheme(scheme_name(s)), s);
    EXPECT_NE(scheme_names().find(scheme_name(s)), std::string::npos);
  }
  EXPECT_EQ(paper_schemes().size(), 7U);
  for (auto kind : {graph::PartitionKind::kContiguous, graph::PartitionKind::kBfsBlocks}) {
    EXPECT_EQ(graph::find_partition_kind(graph::partition_kind_name(kind)), kind);
  }
}

// The lookups report an unknown name instead of aborting: the CLIs turn
// it into exit 2 with the accepted list.
TEST(Runner, UnknownNamesAreNotFound) {
  EXPECT_EQ(find_scheme("bogus"), std::nullopt);
  EXPECT_EQ(graph::find_partition_kind("hash"), std::nullopt);
}

}  // namespace
