/// \file graph_mutate_test.cpp
/// Edge-mutation batches over CsrGraph (graph/mutate.hpp): symmetric
/// insert/delete application, skip accounting, in-batch ordering semantics,
/// and CSR invariant preservation under randomized batches.

#include <gtest/gtest.h>

#include <random>

#include "graph/builder.hpp"
#include "graph/mutate.hpp"
#include "graph/suite.hpp"

namespace speckle::graph {
namespace {

CsrGraph path4() {
  // 0-1-2-3
  return build_csr(4, {{0, 1}, {1, 2}, {2, 3}});
}

TEST(Mutate, InsertAddsBothArcs) {
  const CsrGraph g = path4();
  const MutationOutcome out =
      apply_mutations(g, {{EdgeMutation::Kind::kInsert, 0, 3}});
  EXPECT_EQ(out.applied, 1U);
  EXPECT_EQ(out.skipped, 0U);
  EXPECT_EQ(out.graph.num_edges(), g.num_edges() + 2);
  EXPECT_TRUE(out.graph.has_edge(0, 3));
  EXPECT_TRUE(out.graph.has_edge(3, 0));
  ASSERT_EQ(out.inserted.size(), 1U);
  EXPECT_EQ(out.inserted[0], (Edge{0, 3}));
  EXPECT_TRUE(out.graph.is_symmetric());
}

TEST(Mutate, DeleteRemovesBothArcs) {
  const CsrGraph g = path4();
  const MutationOutcome out =
      apply_mutations(g, {{EdgeMutation::Kind::kDelete, 2, 1}});
  EXPECT_EQ(out.applied, 1U);
  EXPECT_EQ(out.graph.num_edges(), g.num_edges() - 2);
  EXPECT_FALSE(out.graph.has_edge(1, 2));
  EXPECT_FALSE(out.graph.has_edge(2, 1));
  EXPECT_TRUE(out.inserted.empty());
}

TEST(Mutate, SkipsLoopsOutOfRangeDuplicatesAndMissing) {
  const CsrGraph g = path4();
  const MutationOutcome out = apply_mutations(
      g, {{EdgeMutation::Kind::kInsert, 1, 1},     // self loop
          {EdgeMutation::Kind::kInsert, 0, 9},     // out of range
          {EdgeMutation::Kind::kInsert, 0, 1},     // already present
          {EdgeMutation::Kind::kDelete, 0, 2}});   // not present
  EXPECT_EQ(out.applied, 0U);
  EXPECT_EQ(out.skipped, 4U);
  EXPECT_EQ(out.graph.num_edges(), g.num_edges());
}

TEST(Mutate, InsertThenDeleteNetsOut) {
  const CsrGraph g = path4();
  const MutationOutcome out =
      apply_mutations(g, {{EdgeMutation::Kind::kInsert, 0, 2},
                          {EdgeMutation::Kind::kDelete, 2, 0}});
  EXPECT_EQ(out.applied, 2U);  // both mutations were valid when applied
  EXPECT_FALSE(out.graph.has_edge(0, 2));
  EXPECT_TRUE(out.inserted.empty());  // nothing net-new for conflict analysis
  EXPECT_EQ(out.graph.num_edges(), g.num_edges());
}

TEST(Mutate, DeleteThenReinsertKeepsEdge) {
  const CsrGraph g = path4();
  const MutationOutcome out =
      apply_mutations(g, {{EdgeMutation::Kind::kDelete, 0, 1},
                          {EdgeMutation::Kind::kInsert, 1, 0}});
  EXPECT_EQ(out.applied, 2U);
  EXPECT_TRUE(out.graph.has_edge(0, 1));
  EXPECT_EQ(out.graph.num_edges(), g.num_edges());
  // The edge survives, but it is not *new* — no conflict candidates.
  EXPECT_TRUE(out.inserted.empty());
}

TEST(Mutate, RandomBatchesPreserveInvariants) {
  CsrGraph g = make_suite_graph("Hamrle3", 512, 0x5eed);
  std::mt19937_64 rng(7);
  const vid_t n = g.num_vertices();
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<EdgeMutation> muts;
    for (int i = 0; i < 40; ++i) {
      EdgeMutation m;
      m.kind = (rng() & 1U) != 0 ? EdgeMutation::Kind::kInsert
                                 : EdgeMutation::Kind::kDelete;
      m.u = static_cast<vid_t>(rng() % n);
      m.v = static_cast<vid_t>(rng() % n);
      muts.push_back(m);
    }
    MutationOutcome out = apply_mutations(g, muts);
    EXPECT_EQ(out.applied + out.skipped, muts.size());
    EXPECT_TRUE(out.graph.is_symmetric());
    for (const Edge& e : out.inserted) {
      EXPECT_LT(e.src, e.dst);
      EXPECT_TRUE(out.graph.has_edge(e.src, e.dst));
      EXPECT_FALSE(g.has_edge(e.src, e.dst));
    }
    g = std::move(out.graph);
  }
}

}  // namespace
}  // namespace speckle::graph
