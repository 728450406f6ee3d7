// Color-balancing post-pass tests.

#include <gtest/gtest.h>

#include "check_coloring.hpp"
#include "coloring/balance.hpp"
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

TEST(Balance, KeepsColoringProper) {
  const CsrGraph g = spec_graph("er:n=1000,edges=6000,seed=3");
  const auto seq = seq_greedy(g, {.charge_model = false});
  const BalanceResult r = balance_colors(g, seq.coloring);
  EXPECT_TRUE(IsProperColoring(g, r.coloring));
}

TEST(Balance, NeverIncreasesColorCount) {
  const CsrGraph g = spec_graph("localrand:n=800,deglo=1,deghi=6,window=50,seed=8");
  const auto seq = seq_greedy(g, {.charge_model = false});
  const BalanceResult r = balance_colors(g, seq.coloring);
  EXPECT_LE(count_colors(r.coloring), seq.num_colors);
}

TEST(Balance, ImprovesSkewedGreedyColoring) {
  // First-fit loads color 1 heavily; balancing must flatten the histogram.
  const CsrGraph g = spec_graph("er:n=2000,edges=8000,seed=5");
  const auto seq = seq_greedy(g, {.charge_model = false});
  const BalanceResult r = balance_colors(g, seq.coloring);
  EXPECT_GT(r.balance_before, 1.2);  // greedy is skewed on sparse ER
  EXPECT_LT(r.balance_after, r.balance_before);
  EXPECT_GT(r.moves, 0U);
}

TEST(Balance, NoOpOnAlreadyBalanced) {
  // A 2-colorable even ring colored alternately is perfectly balanced.
  const CsrGraph g = build_csr(100, ring_lattice(100, 1));
  Coloring c(100);
  for (vid_t v = 0; v < 100; ++v) c[v] = 1 + (v % 2);
  const BalanceResult r = balance_colors(g, c);
  EXPECT_EQ(r.moves, 0U);
  EXPECT_DOUBLE_EQ(r.balance_after, 1.0);
}

TEST(Balance, SingleColorGraphUntouched) {
  const CsrGraph g = build_csr(5, graph::EdgeList{});
  Coloring c(5, 1);
  const BalanceResult r = balance_colors(g, c);
  EXPECT_EQ(r.coloring, c);
}

TEST(BalanceDeathTest, RejectsImproperInput) {
  const CsrGraph g = build_csr(2, {{0, 1}});
  Coloring bad = {1, 1};
  EXPECT_DEATH(balance_colors(g, bad), "proper");
}

}  // namespace
