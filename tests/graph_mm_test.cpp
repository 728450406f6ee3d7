// Matrix Market I/O tests: round trips, header variants, malformed input.

#include <gtest/gtest.h>

#include <sstream>

#include "graph/builder.hpp"
#include "graph/matrix_market.hpp"
#include "graph_fixtures.hpp"

namespace {

using namespace speckle::graph;
using speckle::testing::spec_graph;

TEST(MatrixMarket, RoundTripPreservesStructure) {
  const CsrGraph g = spec_graph("er:n=64,edges=200,seed=5");
  std::stringstream buffer;
  write_matrix_market(g, buffer);
  const CsrGraph h = read_matrix_market(buffer, "roundtrip");
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(MatrixMarket, ParsesGeneralRealWithValues) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 2 0.5\n"
      "2 1 0.5\n"
      "3 3 9.0\n"   // diagonal entry: dropped as a self loop
      "1 3 -2.0\n");
  const CsrGraph g = read_matrix_market(in, "test");
  EXPECT_EQ(g.num_vertices(), 3U);
  EXPECT_EQ(g.num_edges(), 4U);  // 1-2 and 1-3, both directions
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(MatrixMarket, SymmetricStorageExpands) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 1\n");
  const CsrGraph g = read_matrix_market(in, "sym");
  EXPECT_EQ(g.num_edges(), 4U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.is_symmetric());
}

TEST(MatrixMarket, IntegerFieldAccepted) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "1 2 7\n");
  const CsrGraph g = read_matrix_market(in, "int");
  EXPECT_EQ(g.num_edges(), 2U);
}

// Malformed input throws MatrixMarketError with a message that names the
// file and the defect, so callers can report it instead of aborting.
void expect_rejected(const std::string& text, const std::string& name,
                     const std::string& needle) {
  std::stringstream in(text);
  try {
    read_matrix_market(in, name);
    FAIL() << "expected MatrixMarketError mentioning '" << needle << "'";
  } catch (const MatrixMarketError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(MatrixMarketErrors, RejectsMissingBanner) {
  expect_rejected("3 3 0\n", "bad", "banner");
}

TEST(MatrixMarketErrors, RejectsTruncatedHeader) {
  expect_rejected("%%MatrixMarket matrix coordinate\n2 2 0\n", "short",
                  "truncated banner");
}

TEST(MatrixMarketErrors, RejectsEmptyFile) {
  expect_rejected("", "empty", "empty file");
}

TEST(MatrixMarketErrors, RejectsMissingSizeLine) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% only comments after the header\n",
      "nosize", "missing size line");
}

TEST(MatrixMarketErrors, RejectsNonSquare) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 4 0\n",
      "rect", "square");
}

TEST(MatrixMarketErrors, RejectsOverflowingEntryCount) {
  // 3x3 holds at most 9 entries; a size line promising more is dishonest
  // and must not drive allocation or parsing.
  expect_rejected(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 10\n",
      "fat", "more than a 3x3 matrix can hold");
}

TEST(MatrixMarketErrors, RejectsOutOfRangeIndex) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 9\n",
      "oob", "out of range");
}

TEST(MatrixMarketErrors, RejectsTruncatedFile) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 3\n"
      "1 2\n",
      "trunc", "fewer entries");
}

TEST(MatrixMarketErrors, RejectsMalformedEntryLine) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "one two\n",
      "garbled", "malformed entry");
}

TEST(MatrixMarketErrors, RejectsUnknownFile) {
  EXPECT_THROW(read_matrix_market("/nonexistent/file.mtx"), MatrixMarketError);
}

}  // namespace
