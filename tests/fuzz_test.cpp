// Randomized property tests: arbitrary edge soups through the builder
// (serial and sharded-parallel, which must agree byte-for-byte) and every
// coloring scheme. Seeds are fixed, so failures reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>

#include "check_coloring.hpp"
#include "coloring/runner.hpp"
#include "graph/build_parallel.hpp"
#include "graph/builder.hpp"
#include "graph/partition.hpp"
#include "graph/permute.hpp"
#include "multidev/multidev.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using graph::build_csr;
using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;
using graph::vid_t;

/// Random edge soup: duplicates, self loops, both directions, all allowed —
/// the builder must clean everything up.
CsrGraph random_soup(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  const auto n = static_cast<vid_t>(2 + rng.next_below(600));
  const auto m = rng.next_below(4 * n + 1);
  EdgeList edges;
  for (std::uint64_t i = 0; i < m; ++i) {
    edges.push_back({static_cast<vid_t>(rng.next_below(n)),
                     static_cast<vid_t>(rng.next_below(n))});
  }
  return build_csr(n, std::move(edges));
}

class FuzzBuilder : public ::testing::TestWithParam<int> {};

TEST_P(FuzzBuilder, CsrInvariantsHold) {
  const CsrGraph g = random_soup(static_cast<std::uint64_t>(GetParam()));
  EXPECT_TRUE(g.is_symmetric());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto adj = g.neighbors(v);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      EXPECT_NE(adj[i], v);                       // no self loops
      if (i > 0) {
        EXPECT_LT(adj[i - 1], adj[i]);  // sorted, deduplicated
      }
    }
  }
}

TEST_P(FuzzBuilder, PermutationRoundTripPreservesEdges) {
  const CsrGraph g = random_soup(static_cast<std::uint64_t>(GetParam()) + 1000);
  const auto perm = support::random_permutation(
      g.num_vertices(), static_cast<std::uint64_t>(GetParam()));
  std::vector<vid_t> inverse(perm.size());
  for (vid_t v = 0; v < perm.size(); ++v) inverse[perm[v]] = v;
  const CsrGraph back =
      graph::permute(graph::permute(g, perm), std::span<const vid_t>(inverse));
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = back.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBuilder, ::testing::Range(0, 20));

bool same_graph(const CsrGraph& a, const CsrGraph& b) {
  return std::ranges::equal(a.row_offsets(), b.row_offsets()) &&
         std::ranges::equal(a.col_indices(), b.col_indices());
}

class FuzzParallelBuild : public ::testing::TestWithParam<int> {};

TEST_P(FuzzParallelBuild, ShardedBuildMatchesSerialReferenceByteForByte) {
  // Random soup split into randomized shards (including empty ones), built
  // by build_csr_parallel at several thread counts — every result must
  // equal the serial reference build of the concatenated list exactly.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  support::Xoshiro256 rng(seed + 0xb111d);
  const auto n = static_cast<vid_t>(2 + rng.next_below(800));
  const auto m = rng.next_below(5 * static_cast<std::uint64_t>(n) + 1);
  const auto num_shards = 1 + rng.next_below(9);  // 1..9, some will be empty

  EdgeList all;
  std::vector<EdgeList> shards(num_shards);
  for (std::uint64_t i = 0; i < m; ++i) {
    const Edge e{static_cast<vid_t>(rng.next_below(n)),
                 static_cast<vid_t>(rng.next_below(n))};
    all.push_back(e);
    shards[rng.next_below(num_shards)].push_back(e);
  }
  const CsrGraph reference = build_csr(n, std::move(all));
  for (const unsigned threads : {1u, 2u, 4u}) {
    support::ThreadPool pool(threads);
    const CsrGraph parallel = graph::build_csr_parallel(n, shards, pool);
    EXPECT_TRUE(same_graph(reference, parallel)) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParallelBuild, ::testing::Range(0, 20));

TEST(FuzzParallelBuildEdge, DegenerateShardConfigurations) {
  support::ThreadPool pool(4);
  // All shards empty: a valid 0-edge graph over n vertices.
  {
    const std::vector<EdgeList> shards(6);
    const CsrGraph g = graph::build_csr_parallel(100, shards, pool);
    EXPECT_EQ(g.num_vertices(), 100u);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_TRUE(g.validate());
  }
  // No shards at all.
  {
    const CsrGraph g = graph::build_csr_parallel(5, {}, pool);
    EXPECT_EQ(g.num_vertices(), 5u);
    EXPECT_EQ(g.num_edges(), 0u);
  }
  // All-duplicate edges (plus self loops): dedup collapses everything to
  // one undirected edge, exactly as the serial builder does.
  {
    std::vector<EdgeList> shards(3);
    for (auto& s : shards) {
      for (int i = 0; i < 50; ++i) {
        s.push_back({1, 2});
        s.push_back({2, 1});
        s.push_back({3, 3});  // self loop, dropped
      }
    }
    EdgeList all;
    for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
    const CsrGraph parallel = graph::build_csr_parallel(4, shards, pool);
    const CsrGraph serial = build_csr(4, std::move(all));
    EXPECT_TRUE(same_graph(serial, parallel));
    EXPECT_EQ(parallel.num_edges(), 2u);  // 1-2 both directions
  }
  // Single hub vertex: one massively imbalanced row must not break the
  // per-row canonicalization or the counting sort.
  {
    std::vector<EdgeList> shards(4);
    const vid_t n = 5000;
    for (vid_t v = 1; v < n; ++v) shards[v % 4].push_back({0, v});
    EdgeList all;
    for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
    const CsrGraph parallel = graph::build_csr_parallel(n, shards, pool);
    const CsrGraph serial = build_csr(n, std::move(all));
    EXPECT_TRUE(same_graph(serial, parallel));
    EXPECT_EQ(parallel.degree(0), n - 1);
  }
}

class FuzzSchemes : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSchemes, EverySchemeProperOnRandomGraph) {
  const CsrGraph g = random_soup(static_cast<std::uint64_t>(GetParam()) + 5000);
  RunOptions opts;
  opts.seed = static_cast<std::uint64_t>(GetParam());
  for (Scheme s : all_schemes()) {
    // run_scheme verifies internally and aborts on an improper result.
    const RunResult r = run_scheme(s, g, opts);
    EXPECT_EQ(r.coloring.size(), g.num_vertices()) << scheme_name(s);
    if (g.num_edges() > 0) {
      EXPECT_GE(r.num_colors, 2U) << scheme_name(s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSchemes, ::testing::Range(0, 8));

class FuzzMultiDev : public ::testing::TestWithParam<int> {};

TEST_P(FuzzMultiDev, ShardedColoringProperWithConsistentGhosts) {
  // Random graph x random fleet size x both partitioners, with the ghost
  // consistency invariant checked after every exchange (verify_ghosts) and
  // the result judged by the shared oracle. Exercises empty shards (P can
  // exceed n), heavily cut partitions (a soup's ids carry no locality, so
  // contiguous blocks cut most edges), and BFS block growth over
  // disconnected soup.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const CsrGraph g = random_soup(seed + 9000);
  support::Xoshiro256 rng(seed ^ 0xf122u);
  multidev::MultiDevOptions opts;
  opts.num_devices = static_cast<std::uint32_t>(1 + rng.next_below(8));
  constexpr graph::PartitionKind kKinds[] = {graph::PartitionKind::kContiguous,
                                             graph::PartitionKind::kBfsBlocks};
  opts.partitioner = kKinds[rng.next_below(2)];
  opts.use_ldg = (rng.next_below(2) == 0);
  opts.scan_push = (rng.next_below(2) == 0);
  opts.defer_rounds = static_cast<std::uint32_t>(rng.next_below(3));
  opts.seed = seed + 1;
  opts.verify_ghosts = true;

  // The soup stays a high-cut input: contiguous blocks at P=4 cut at least
  // half of its edges.
  const graph::Partition p4 =
      graph::make_partition(g, 4, graph::PartitionKind::kContiguous);
  EXPECT_GE(2 * p4.cut_edges, g.num_edges());

  const multidev::MultiDevResult r = multidev::multidev_color(g, opts);
  EXPECT_TRUE(speckle::testing::IsGreedyColoring(g, r.coloring))
      << "P=" << opts.num_devices << " "
      << graph::partition_kind_name(opts.partitioner);
  EXPECT_EQ(r.devices.size(), opts.num_devices);
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  for (const auto& d : r.devices) {
    sent += d.sent_colors;
    recv += d.recv_colors;
  }
  EXPECT_EQ(sent, recv);  // both sides count one record per ghost copy
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMultiDev, ::testing::Range(0, 12));

TEST(Fuzz, SchemesAgreeThatColoringIsOrderingDependentNotCorrectness) {
  // Relabeling a graph changes every scheme's coloring but never its
  // validity — and color counts stay within the greedy bound.
  const CsrGraph g = random_soup(424242);
  const CsrGraph h = graph::permute_random(g, 7);
  for (Scheme s : {Scheme::kDataBase, Scheme::kTopoBase, Scheme::kCsrColor}) {
    const RunResult rg = run_scheme(s, g);
    const RunResult rh = run_scheme(s, h);
    if (s != Scheme::kCsrColor) {
      EXPECT_LE(rg.num_colors, g.max_degree() + 1);
      EXPECT_LE(rh.num_colors, h.max_degree() + 1);
    }
  }
}

}  // namespace
