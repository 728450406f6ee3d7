// Tests for the Table I benchmark-suite factory: the structural twins must
// land near the published statistics (scaled) and be fully deterministic.

#include <gtest/gtest.h>

#include "graph/analysis.hpp"
#include "graph/suite.hpp"

namespace {

using namespace speckle::graph;

TEST(Suite, HasSixEntriesInPaperOrder) {
  const auto& entries = suite_entries();
  ASSERT_EQ(entries.size(), 6U);
  EXPECT_EQ(entries[0].name, "rmat-er");
  EXPECT_EQ(entries[1].name, "rmat-g");
  EXPECT_EQ(entries[2].name, "thermal2");
  EXPECT_EQ(entries[3].name, "atmosmodd");
  EXPECT_EQ(entries[4].name, "Hamrle3");
  EXPECT_EQ(entries[5].name, "G3_circuit");
}

TEST(Suite, EntriesCarryPaperStats) {
  const SuiteEntry& e = suite_entry("thermal2");
  EXPECT_EQ(e.paper.num_vertices, 1228045U);
  EXPECT_TRUE(e.spd);
  EXPECT_EQ(e.domain, "Thermal Simulation");
}

TEST(SuiteDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(suite_entry("nope"), "unknown suite graph");
  EXPECT_DEATH(make_suite_graph("nope", 8), "unknown suite graph");
}

TEST(SuiteDeathTest, NonPowerOfTwoDenomAborts) {
  EXPECT_DEATH(make_suite_graph("rmat-er", 3), "power of two");
}

TEST(Suite, ValidDenomsArePowersOfTwoUpTo2To19) {
  EXPECT_FALSE(valid_suite_denom(0));
  EXPECT_TRUE(valid_suite_denom(1));
  EXPECT_FALSE(valid_suite_denom(3));
  EXPECT_TRUE(valid_suite_denom(1U << 19));
  EXPECT_FALSE(valid_suite_denom(1U << 20));
}

TEST(SuiteDeathTest, DenomPast2To19Aborts) {
  // At 2^20 rmat-er and Hamrle3 would drop below 2 vertices.
  EXPECT_DEATH(suite_generator_spec("rmat-er", 1U << 20, 7), "power of two");
  EXPECT_DEATH(suite_generator_spec("Hamrle3", 1U << 20, 7), "power of two");
}

TEST(Suite, Deterministic) {
  const CsrGraph a = make_suite_graph("rmat-er", 128);
  const CsrGraph b = make_suite_graph("rmat-er", 128);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.col_indices().size(); ++i) {
    ASSERT_EQ(a.col_indices()[i], b.col_indices()[i]);
  }
}

// Structural-twin property check: at 1/64 scale the average degree must be
// within 20% of the published Table I value, and the vertex count within
// 10% of paper/64. (The bench bench_table1 prints the full side-by-side.)
class SuiteTwin : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteTwin, MatchesPublishedShape) {
  const std::string name = GetParam();
  const SuiteEntry& entry = suite_entry(name);
  const std::uint32_t denom = 64;
  const CsrGraph g = make_suite_graph(name, denom);
  const DegreeReport r = analyze_degrees(g);

  const double expected_n = static_cast<double>(entry.paper.num_vertices) / denom;
  EXPECT_NEAR(r.num_vertices, expected_n, 0.12 * expected_n) << name;
  EXPECT_NEAR(r.avg_degree, entry.paper.avg_degree, 0.20 * entry.paper.avg_degree)
      << name;
}

TEST_P(SuiteTwin, SymmetricAndLoopFree) {
  const CsrGraph g = make_suite_graph(GetParam(), 128);
  EXPECT_TRUE(g.is_symmetric());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FALSE(g.has_edge(v, v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuiteGraphs, SuiteTwin,
                         ::testing::Values("rmat-er", "rmat-g", "thermal2",
                                           "atmosmodd", "Hamrle3", "G3_circuit"));

}  // namespace
