/// \file coloring_recolor_test.cpp
/// Incremental recoloring (coloring/recolor.hpp): the dirty-region entry
/// point over the shared speculate/resolve loop. Covers the satellite
/// cases (empty dirty set, whole-graph dirty set, single-edge conflict),
/// the full-recolor threshold fallback, dirty-set derivation from edge
/// inserts, and a randomized mutate→recolor properness sweep against the
/// shared conformance oracle.

#include <gtest/gtest.h>

#include <random>

#include "check_coloring.hpp"
#include "coloring/data.hpp"
#include "coloring/recolor.hpp"
#include "coloring/runner.hpp"
#include "graph/builder.hpp"
#include "graph/mutate.hpp"
#include "graph/suite.hpp"

namespace speckle::coloring {
namespace {

using graph::CsrGraph;
using graph::vid_t;
using testing::IsProperColoring;

RecolorOptions small_opts() {
  RecolorOptions opts;
  opts.use_ldg = true;
  opts.device = opts.device.scaled(64);
  return opts;
}

TEST(RecolorRegion, EmptyDirtySetReturnsBaseUnchanged) {
  const CsrGraph g = graph::make_suite_graph("G3_circuit", 512, 0x5eed);
  const GpuResult base = data_color(g, small_opts());
  const RecolorResult r = recolor_region(g, base.coloring, {}, small_opts());
  EXPECT_EQ(r.coloring, base.coloring);
  EXPECT_EQ(r.iterations, 0U);
  EXPECT_FALSE(r.full);
  EXPECT_EQ(r.model_ms, 0.0);
}

TEST(RecolorRegion, WholeGraphDirtyEqualsFromScratch) {
  const CsrGraph g = graph::make_suite_graph("Hamrle3", 512, 0x5eed);
  const RecolorOptions opts = small_opts();
  const GpuResult scratch = data_color(g, opts);

  std::vector<vid_t> all(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) all[v] = v;
  // The base coloring is irrelevant once the threshold forces the full
  // path; feed a deliberately broken one to prove it is ignored.
  const Coloring junk(g.num_vertices(), 1);
  const RecolorResult r = recolor_region(g, junk, all, opts);
  EXPECT_TRUE(r.full);
  EXPECT_EQ(r.coloring, scratch.coloring);
  EXPECT_EQ(r.iterations, scratch.iterations);
}

TEST(RecolorRegion, SingleEdgeConflictRecolorsOneVertex) {
  // 0-1-...-11 path colored properly, then edge (0,2) appears: 0 and 2
  // share a color, the lower id (0) is invalidated. 1 of 12 dirty stays
  // under kFullRecolorFraction, so the path is incremental.
  constexpr vid_t n = 12;
  graph::EdgeList edges;
  Coloring base;
  for (vid_t v = 0; v < n; ++v) {
    if (v + 1 < n) edges.push_back({v, v + 1});
    base.push_back(v % 2 + 1);
  }
  const CsrGraph before = graph::build_csr(n, std::move(edges));
  ASSERT_TRUE(IsProperColoring(before, base));

  const graph::MutationOutcome mut = graph::apply_mutations(
      before, {{graph::EdgeMutation::Kind::kInsert, 0, 2}});
  const std::vector<vid_t> dirty = dirty_from_inserts(base, mut.inserted);
  ASSERT_EQ(dirty, (std::vector<vid_t>{0}));

  const RecolorResult r = recolor_region(mut.graph, base, dirty, small_opts());
  EXPECT_FALSE(r.full);
  EXPECT_EQ(r.iterations, 1U);
  EXPECT_TRUE(IsProperColoring(mut.graph, r.coloring));
  // Only the dirty vertex may change.
  for (vid_t v = 1; v < n; ++v) EXPECT_EQ(r.coloring[v], base[v]);
  EXPECT_NE(r.coloring[0], r.coloring[1]);
  EXPECT_NE(r.coloring[0], r.coloring[2]);
}

TEST(RecolorRegion, ThresholdForcesFullFallback) {
  const CsrGraph g = graph::make_suite_graph("Hamrle3", 1024, 0x5eed);
  const GpuResult base = data_color(g, small_opts());

  // The largest dirty set at most kFullRecolorFraction of n stays
  // incremental; one more vertex trips the from-scratch fallback.
  const auto at_most = static_cast<vid_t>(kFullRecolorFraction *
                                          static_cast<double>(g.num_vertices()));
  ASSERT_GT(at_most, 1U);
  std::vector<vid_t> dirty(at_most);
  for (vid_t i = 0; i < at_most; ++i) dirty[i] = i;
  const RecolorResult under = recolor_region(g, base.coloring, dirty, small_opts());
  EXPECT_FALSE(under.full);
  EXPECT_TRUE(IsProperColoring(g, under.coloring));

  dirty.push_back(at_most);
  const RecolorResult over = recolor_region(g, base.coloring, dirty, small_opts());
  EXPECT_TRUE(over.full);
  EXPECT_TRUE(IsProperColoring(g, over.coloring));
  EXPECT_EQ(over.coloring, base.coloring);  // from scratch == data_color
}

TEST(RecolorRegion, CleanNeighborsKeepTheirColors) {
  // Star: center 0 with leaves 1..10, center dirty (1 of 11, under
  // kFullRecolorFraction). The leaves are clean and must come through
  // untouched; the center must pick a non-leaf color.
  graph::EdgeList edges;
  Coloring base = {1};  // center conflicts with the odd leaves
  for (vid_t leaf = 1; leaf <= 10; ++leaf) {
    edges.push_back({0, leaf});
    base.push_back(2 - leaf % 2);
  }
  const CsrGraph g = graph::build_csr(11, std::move(edges));

  const RecolorResult r = recolor_region(g, base, {{0}}, small_opts());
  EXPECT_FALSE(r.full);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  for (vid_t v = 1; v <= 10; ++v) EXPECT_EQ(r.coloring[v], base[v]);
  EXPECT_EQ(r.coloring[0], 3U);  // first fit above the leaf colors {1, 2}
}

TEST(DirtyFromInserts, PicksLowerEndpointOfConflicts) {
  const Coloring coloring = {1, 2, 1, 2};
  const std::vector<graph::Edge> inserted = {{0, 2}, {1, 3}, {0, 1}};
  // (0,2): both color 1 → dirty 0. (1,3): both color 2 → dirty 1.
  // (0,1): different colors → clean.
  EXPECT_EQ(dirty_from_inserts(coloring, inserted),
            (std::vector<vid_t>{0, 1}));
}

TEST(RecolorRegion, MutateRecolorSweepStaysProper) {
  CsrGraph g = graph::make_suite_graph("G3_circuit", 512, 0x5eed);
  RecolorOptions opts = small_opts();
  Coloring coloring = data_color(g, opts).coloring;
  ASSERT_TRUE(IsProperColoring(g, coloring));

  std::mt19937_64 rng(11);
  const vid_t n = g.num_vertices();
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<graph::EdgeMutation> muts;
    for (int i = 0; i < 25; ++i) {
      graph::EdgeMutation m;
      m.kind = (rng() % 4U) != 0 ? graph::EdgeMutation::Kind::kInsert
                                 : graph::EdgeMutation::Kind::kDelete;
      m.u = static_cast<vid_t>(rng() % n);
      m.v = static_cast<vid_t>(rng() % n);
      muts.push_back(m);
    }
    graph::MutationOutcome out = graph::apply_mutations(g, muts);
    const std::vector<vid_t> dirty = dirty_from_inserts(coloring, out.inserted);
    const RecolorResult r = recolor_region(out.graph, coloring, dirty, opts);
    EXPECT_TRUE(IsProperColoring(out.graph, r.coloring))
        << "batch " << batch << " dirty=" << dirty.size();
    g = std::move(out.graph);
    coloring = r.coloring;
  }
}

// The claim incremental recoloring exists for: on small insert batches
// (<= 0.1% of the edges) of two Table I graphs, recolor_region's simulated
// time is at least 5x below a from-scratch data_color of the mutated graph
// (7.6-12.5x measured on these six cases). Half of each batch joins
// same-color pairs so the dirty set is never trivially empty. Denom 16 is
// load-bearing: at denom 64 three cases fall to 3.3-3.9x, because the
// fixed per-launch cost dominates the shrunken from-scratch run.
TEST(RecolorRegion, IncrementalBeatsScratchFiveFold) {
  RecolorOptions opts;
  opts.use_ldg = true;
  opts.device = opts.device.scaled(16);
  for (const char* name : {"Hamrle3", "G3_circuit"}) {
    const CsrGraph g = graph::make_suite_graph(name, 16, 1);
    const GpuResult base = data_color(g, opts);
    const vid_t n = g.num_vertices();
    for (const std::uint32_t batch_edges : {8U, 64U, 256U}) {
      std::mt19937_64 rng(104729 + batch_edges);
      std::vector<graph::EdgeMutation> batch;
      while (batch.size() < batch_edges) {
        const auto u = static_cast<vid_t>(rng() % n);
        auto v = static_cast<vid_t>(rng() % n);
        if (batch.size() % 2 == 0) {
          // Walk forward to a vertex sharing u's color (bounded scan).
          for (vid_t probe = 1; probe < 4096; ++probe) {
            if (base.coloring[(u + probe) % n] == base.coloring[u]) {
              v = (u + probe) % n;
              break;
            }
          }
        }
        if (u != v) batch.push_back({graph::EdgeMutation::Kind::kInsert, u, v});
      }
      const graph::MutationOutcome out = graph::apply_mutations(g, batch);
      const std::vector<vid_t> dirty = dirty_from_inserts(base.coloring, out.inserted);
      const RecolorResult incremental =
          recolor_region(out.graph, base.coloring, dirty, opts);
      const GpuResult scratch = data_color(out.graph, opts);
      EXPECT_TRUE(IsProperColoring(out.graph, incremental.coloring))
          << name << " batch " << batch_edges;
      EXPECT_FALSE(incremental.full) << name << " batch " << batch_edges;
      EXPECT_LE(incremental.model_ms * 5.0, scratch.model_ms)
          << name << " batch " << batch_edges << ": " << incremental.model_ms
          << " ms incremental vs " << scratch.model_ms << " ms from scratch";
    }
  }
}

}  // namespace
}  // namespace speckle::coloring
