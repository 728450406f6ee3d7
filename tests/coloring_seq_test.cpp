// Sequential greedy, orderings, verification, and the first-fit rule.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/ordering.hpp"
#include "coloring/seq_greedy.hpp"
#include "graph/builder.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using speckle::testing::IsProperColoring;
using speckle::testing::complete;
using speckle::testing::ring_lattice;
using speckle::testing::spec_graph;
using graph::build_csr;
using graph::CsrGraph;
using graph::vid_t;

TEST(Verify, DetectsConflictsAndUncolored) {
  const CsrGraph g = build_csr(3, {{0, 1}, {1, 2}});
  Coloring bad = {1, 1, 2};
  const VerifyResult r = verify_coloring(g, bad);
  EXPECT_FALSE(r.proper);
  EXPECT_EQ(r.conflicts, 1U);
  Coloring partial = {1, 2, kUncolored};
  EXPECT_EQ(verify_coloring(g, partial).uncolored, 1U);
  Coloring good = {1, 2, 1};
  EXPECT_TRUE(IsProperColoring(g, good));
  EXPECT_EQ(verify_coloring(g, good).num_colors, 2U);
}

TEST(Verify, HistogramAndBalance) {
  Coloring c = {1, 1, 1, 2};
  const auto hist = color_histogram(c);
  ASSERT_EQ(hist.size(), 3U);
  EXPECT_EQ(hist[1], 3U);
  EXPECT_EQ(hist[2], 1U);
  EXPECT_DOUBLE_EQ(color_balance(c), 3.0 / 2.0);  // largest=3, ideal=2
}

TEST(SeqGreedy, TriangleNeedsThreeColors) {
  const CsrGraph g = build_csr(3, {{0, 1}, {1, 2}, {0, 2}});
  const SeqResult r = seq_greedy(g);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  EXPECT_EQ(r.num_colors, 3U);
}

TEST(SeqGreedy, BipartiteStencilUsesTwoColors) {
  const CsrGraph g = spec_graph("grid2d:nx=10,ny=10");
  const SeqResult r = seq_greedy(g);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  EXPECT_EQ(r.num_colors, 2U);
}

TEST(SeqGreedy, CompleteGraphNeedsN) {
  const CsrGraph g = build_csr(7, complete(7));
  const SeqResult r = seq_greedy(g);
  EXPECT_EQ(r.num_colors, 7U);
}

TEST(SeqGreedy, EvenRingTwoColorsOddRingThree) {
  const CsrGraph even = build_csr(10, ring_lattice(10, 1));
  EXPECT_EQ(seq_greedy(even).num_colors, 2U);
  const CsrGraph odd = build_csr(11, ring_lattice(11, 1));
  EXPECT_EQ(seq_greedy(odd).num_colors, 3U);
}

TEST(SeqGreedy, IsolatedVerticesGetColorOne) {
  const CsrGraph g = build_csr(4, {{0, 1}});
  const SeqResult r = seq_greedy(g);
  EXPECT_EQ(r.coloring[2], 1U);
  EXPECT_EQ(r.coloring[3], 1U);
}

TEST(SeqGreedy, BoundedByMaxDegreePlusOne) {
  const CsrGraph g = spec_graph("er:n=500,edges=3000,seed=9");
  const SeqResult r = seq_greedy(g);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
  EXPECT_LE(r.num_colors, g.max_degree() + 1);
}

TEST(SeqGreedy, ModelChargesCycles) {
  const CsrGraph g = spec_graph("er:n=200,edges=1000,seed=2");
  SeqOptions opts;
  const SeqResult charged = seq_greedy(g, opts);
  EXPECT_GT(charged.model_ms, 0.0);
  opts.charge_model = false;
  EXPECT_EQ(seq_greedy(g, opts).model_ms, 0.0);
}

TEST(FirstFitColor, PicksSmallestPermissible) {
  const CsrGraph g = build_csr(4, {{0, 1}, {0, 2}, {0, 3}});
  Coloring c = {kUncolored, 1, 2, 4};
  EXPECT_EQ(first_fit_color(g, c, 0), 3U);
  c = {kUncolored, 1, 2, 3};
  EXPECT_EQ(first_fit_color(g, c, 0), 4U);
  c = {kUncolored, 2, 3, 4};
  EXPECT_EQ(first_fit_color(g, c, 0), 1U);
}

TEST(FirstFitColor, WidensBeyond64Colors) {
  // A star whose leaves use colors 1..70 forces the window to widen.
  const vid_t leaves = 70;
  graph::EdgeList edges;
  for (vid_t i = 1; i <= leaves; ++i) edges.push_back({0, i});
  const CsrGraph g = build_csr(leaves + 1, edges);
  Coloring c(leaves + 1, kUncolored);
  for (vid_t i = 1; i <= leaves; ++i) c[i] = i;
  EXPECT_EQ(first_fit_color(g, c, 0), 71U);
}

class OrderingSweep : public ::testing::TestWithParam<Ordering> {};

TEST_P(OrderingSweep, AllOrderingsProduceProperColorings) {
  const CsrGraph g = spec_graph("er:n=400,edges=2400,seed=17");
  SeqOptions opts;
  opts.ordering = GetParam();
  opts.charge_model = false;
  const SeqResult r = seq_greedy(g, opts);
  EXPECT_TRUE(IsProperColoring(g, r.coloring))
      << ordering_name(GetParam());
  EXPECT_LE(r.num_colors, g.max_degree() + 1);
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, OrderingSweep,
                         ::testing::Values(Ordering::kFirstFit,
                                           Ordering::kLargestFirst,
                                           Ordering::kSmallestLast,
                                           Ordering::kRandom));

TEST(Ordering, SmallestLastBeatsFirstFitOnSkewedGraph) {
  // Smallest-last colors a graph within degeneracy+1. A crown-like graph
  // where first-fit by natural order is poor: classic ordering-quality gap.
  const CsrGraph g = spec_graph("rmat:scale=11,edges=12000,a=0.55,b=0.15,c=0.15,d=0.15,seed=3");
  SeqOptions ff;
  ff.charge_model = false;
  SeqOptions sl;
  sl.ordering = Ordering::kSmallestLast;
  sl.charge_model = false;
  EXPECT_LE(seq_greedy(g, sl).num_colors, seq_greedy(g, ff).num_colors + 1);
}

TEST(Ordering, SmallestLastIsDegeneracyOrder) {
  // On a tree (degeneracy 1), smallest-last must 2-color.
  graph::EdgeList edges;
  for (vid_t v = 1; v < 127; ++v) edges.push_back({(v - 1) / 2, v});  // binary tree
  const CsrGraph g = build_csr(127, edges);
  SeqOptions opts;
  opts.ordering = Ordering::kSmallestLast;
  opts.charge_model = false;
  EXPECT_EQ(seq_greedy(g, opts).num_colors, 2U);
}

TEST(Ordering, OrdersArePermutations) {
  const CsrGraph g = spec_graph("er:n=100,edges=400,seed=21");
  for (Ordering o : {Ordering::kFirstFit, Ordering::kLargestFirst,
                     Ordering::kSmallestLast, Ordering::kRandom}) {
    auto order = make_order(g, o, 5);
    std::sort(order.begin(), order.end());
    for (vid_t v = 0; v < 100; ++v) ASSERT_EQ(order[v], v) << ordering_name(o);
  }
}

}  // namespace
