// Multi-device partitioned coloring (speckle::multidev) and its
// partitioners: shard construction edge cases, bit-identity across host
// threads 1 vs 2/4/8, sanitizer cleanliness of the exchange machinery, and
// the Table I quality bound — sharded D-ldg at P in {1, 2, 4} must stay
// within 1.15x of the single-device color count on every suite graph.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "check_coloring.hpp"
#include "coloring/runner.hpp"
#include "graph/builder.hpp"
#include "graph/partition.hpp"
#include "graph/permute.hpp"
#include "graph/suite.hpp"
#include "multidev/multidev.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using speckle::testing::IsGreedyColoring;
using speckle::testing::IsProperColoring;
using graph::build_csr;
using graph::CsrGraph;
using graph::make_partition;
using graph::Partition;
using graph::PartitionKind;
using graph::vid_t;

CsrGraph path_graph(vid_t n) {
  graph::EdgeList edges;
  for (vid_t v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return build_csr(n, std::move(edges));
}

CsrGraph grid_graph(vid_t side) {
  graph::EdgeList edges;
  for (vid_t r = 0; r < side; ++r) {
    for (vid_t c = 0; c < side; ++c) {
      const vid_t v = r * side + c;
      if (c + 1 < side) edges.push_back({v, v + 1});
      if (r + 1 < side) edges.push_back({v, v + side});
    }
  }
  return build_csr(side * side, std::move(edges));
}

multidev::MultiDevResult run_multidev(const CsrGraph& g, std::uint32_t parts,
                                      PartitionKind kind,
                                      bool verify_ghosts = true) {
  multidev::MultiDevOptions opts;
  opts.num_devices = parts;
  opts.partitioner = kind;
  opts.use_ldg = true;
  opts.verify_ghosts = verify_ghosts;
  return multidev::multidev_color(g, opts);
}

// ---------------------------------------------------------------------------
// Partitioner structure.

TEST(PartitionTest, ContiguousCoversAllVerticesOnce) {
  const CsrGraph g = grid_graph(8);
  const Partition part =
      make_partition(g, 4, PartitionKind::kContiguous);
  part.validate(g);
  vid_t total = 0;
  for (const graph::Shard& s : part.shards) total += s.num_owned();
  EXPECT_EQ(total, g.num_vertices());
  EXPECT_EQ(part.shards.size(), 4u);
}

TEST(PartitionTest, BfsCoversAllVerticesOnceAndCutsLessThanContiguous) {
  // BFS blocks grow shards along the adjacency structure, so on a mesh
  // whose ids carry no locality they must beat the id-range contiguous
  // partitioner's edge cut.
  const CsrGraph g = graph::permute_random(grid_graph(16), 99);
  const Partition bfs = make_partition(g, 4, PartitionKind::kBfsBlocks);
  bfs.validate(g);
  vid_t total = 0;
  for (const graph::Shard& s : bfs.shards) total += s.num_owned();
  EXPECT_EQ(total, g.num_vertices());

  const Partition contiguous = make_partition(g, 4, PartitionKind::kContiguous);
  EXPECT_LT(bfs.cut_edges, contiguous.cut_edges);
}

TEST(PartitionTest, MorePartsThanVerticesLeavesEmptyShards) {
  // P > n: some shards own nothing; the fleet must still run and color.
  const CsrGraph g = path_graph(3);
  const Partition part =
      make_partition(g, 8, PartitionKind::kContiguous);
  part.validate(g);
  vid_t total = 0;
  std::uint32_t empty = 0;
  for (const graph::Shard& s : part.shards) {
    total += s.num_owned();
    if (s.num_owned() == 0) {
      ++empty;
      EXPECT_EQ(s.num_ghosts(), 0u);  // nothing owned => nothing to ghost
    }
  }
  EXPECT_EQ(total, g.num_vertices());
  EXPECT_GE(empty, 5u);

  const auto r = run_multidev(g, 8, PartitionKind::kContiguous);
  EXPECT_TRUE(IsGreedyColoring(g, r.coloring));
  EXPECT_EQ(r.num_colors, 2u);
}

TEST(PartitionTest, IsolatedVerticesHaveNoGhosts) {
  // Vertices with no edges never appear as anyone's ghost and still get a
  // color. build_csr keeps isolated vertices as empty rows.
  graph::EdgeList edges{{0, 1}};
  const CsrGraph g = build_csr(6, std::move(edges));  // 2..5 isolated
  for (const PartitionKind kind :
       {PartitionKind::kContiguous, PartitionKind::kBfsBlocks}) {
    const Partition part = make_partition(g, 3, kind);
    part.validate(g);
    std::uint64_t ghosts = 0;
    for (const graph::Shard& s : part.shards) ghosts += s.num_ghosts();
    EXPECT_LE(ghosts, 2u) << graph::partition_kind_name(kind);

    const auto r = run_multidev(g, 3, kind);
    EXPECT_TRUE(IsGreedyColoring(g, r.coloring));
    for (vid_t v = 2; v < 6; ++v) EXPECT_EQ(r.coloring[v], 1u);
  }
}

TEST(PartitionTest, AllBoundaryPath) {
  // One vertex per device: every edge is cut, every vertex is a boundary
  // vertex, and the whole coloring is carried by the exchange machinery.
  const vid_t n = 12;
  const CsrGraph g = path_graph(n);
  const Partition part =
      make_partition(g, n, PartitionKind::kContiguous);
  part.validate(g);
  EXPECT_EQ(part.cut_edges, g.num_edges());  // every directed entry is cut

  const auto r = run_multidev(g, n, PartitionKind::kContiguous);
  EXPECT_TRUE(IsGreedyColoring(g, r.coloring));
  EXPECT_LE(r.num_colors, 3u);
  EXPECT_EQ(r.cut_edges, g.num_edges());
  EXPECT_GT(r.exchanged_colors, 0u);
  EXPECT_GT(r.ghost_rounds_verified, 0u);
}

// ---------------------------------------------------------------------------
// Determinism.

TEST(MultiDevTest, ReportsAreHostThreadInvariant) {
  const CsrGraph g = graph::make_suite_graph("rmat-g", 256);
  multidev::MultiDevOptions opts;
  opts.num_devices = 4;
  opts.use_ldg = true;
  opts.device.sanitize = true;

  opts.device.host_threads = 1;
  const auto a = multidev::multidev_color(g, opts);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    opts.device.host_threads = threads;
    const auto b = multidev::multidev_color(g, opts);

    EXPECT_EQ(a.coloring, b.coloring);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.exchanged_colors, b.exchanged_colors);
    EXPECT_EQ(a.model_ms, b.model_ms);
    EXPECT_EQ(a.hidden_ms, b.hidden_ms);
    EXPECT_TRUE(a.exchange_rounds == b.exchange_rounds);
    EXPECT_EQ(a.report.total_cycles, b.report.total_cycles);
    EXPECT_EQ(a.report.d2d.bytes, b.report.d2d.bytes);
    EXPECT_TRUE(a.san == b.san);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t k = 0; k < a.devices.size(); ++k) {
      EXPECT_EQ(a.devices[k].sent_colors, b.devices[k].sent_colors) << k;
      EXPECT_EQ(a.devices[k].recv_colors, b.devices[k].recv_colors) << k;
      EXPECT_EQ(a.devices[k].rounds, b.devices[k].rounds) << k;
      EXPECT_EQ(a.devices[k].report.total_cycles,
                b.devices[k].report.total_cycles)
          << k;
    }
  }
}

TEST(MultiDevTest, SanitizerCleanAtP4) {
  const CsrGraph g = graph::make_suite_graph("rmat-er", 256);
  multidev::MultiDevOptions opts;
  opts.num_devices = 4;
  opts.use_ldg = true;
  opts.device.sanitize = true;
  const auto r = multidev::multidev_color(g, opts);
  EXPECT_TRUE(IsGreedyColoring(g, r.coloring));
  EXPECT_TRUE(r.san.clean()) << r.san.format();
  for (const auto& d : r.devices) {
    EXPECT_TRUE(d.san.clean()) << "device " << d.device << "\n" << d.san.format();
  }
}

TEST(MultiDevTest, HighCutPartitionColorsProperly) {
  // Ghost-exchange stress: rmat-er's ids carry no locality, so contiguous
  // blocks at P=4 cut most of its edges and most vertices are boundary.
  const CsrGraph g = graph::make_suite_graph("rmat-er", 256);
  const auto r = run_multidev(g, 4, PartitionKind::kContiguous);
  EXPECT_TRUE(IsGreedyColoring(g, r.coloring));
  EXPECT_GE(2 * r.cut_edges, g.num_edges());
  EXPECT_GT(r.ghost_rounds_verified, 0u);
}

TEST(MultiDevTest, BoundaryInteriorSplitStructure) {
  // The overlap restructure splits every round into a boundary launch
  // (feeds the exchange), a cross-cut conflict scan (consumes last round's
  // exchange), an interior launch (hides the flight time), and an
  // owned-only local detect. All four kernels must appear in the fleet
  // log, and the per-round exchange accounting must be self-consistent.
  // thermal2 is a mesh, so a contiguous partition has both boundary and
  // interior vertices (on rmat-er almost every vertex is boundary and the
  // interior slice never launches).
  const CsrGraph g = graph::make_suite_graph("thermal2", 256);
  const auto r = run_multidev(g, 4, PartitionKind::kContiguous);
  EXPECT_TRUE(IsGreedyColoring(g, r.coloring));

  bool saw_bnd = false, saw_int = false, saw_xdetect = false, saw_detect = false;
  for (const auto& k : r.report.kernels) {
    saw_bnd |= k.name.find(".md_color_bnd") != std::string::npos;
    saw_int |= k.name.find(".md_color_int") != std::string::npos;
    saw_xdetect |= k.name.find(".md_xdetect") != std::string::npos;
    saw_detect |= k.name.find(".md_detect") != std::string::npos;
  }
  EXPECT_TRUE(saw_bnd);
  EXPECT_TRUE(saw_int);
  EXPECT_TRUE(saw_xdetect);
  EXPECT_TRUE(saw_detect);

  // Every owned vertex with a cut edge is boundary; none can exceed owned.
  vid_t boundary_total = 0;
  for (const auto& d : r.devices) {
    EXPECT_LE(d.boundary, d.owned) << "device " << d.device;
    if (d.cut_edges > 0) {
      EXPECT_GT(d.boundary, 0u) << "device " << d.device;
    }
    boundary_total += d.boundary;
  }
  EXPECT_GT(boundary_total, 0u);

  // Per-round batches count both endpoints of each link (always even),
  // hidden + stall partitions the busy cycles, and the round bytes sum to
  // the fleet's per-endpoint d2d total.
  ASSERT_FALSE(r.exchange_rounds.empty());
  std::uint64_t bytes_total = 0;
  for (const auto& er : r.exchange_rounds) {
    EXPECT_EQ(er.batches % 2, 0u) << "round " << er.round;
    EXPECT_LE(er.hidden_cycles, er.cycles) << "round " << er.round;
    if (er.hidden_cycles > 0) {
      EXPECT_EQ(er.hidden_cycles + er.stall_cycles, er.cycles)
          << "round " << er.round;
    }
    bytes_total += er.bytes;
  }
  EXPECT_EQ(bytes_total, r.report.d2d.bytes);
}

TEST(MultiDevTest, FleetReportAggregatesPerDevicePrefixes) {
  const CsrGraph g = graph::make_suite_graph("rmat-er", 512);
  const auto r = run_multidev(g, 2, PartitionKind::kContiguous);
  ASSERT_EQ(r.devices.size(), 2u);
  bool saw_d0 = false;
  bool saw_d1 = false;
  for (const auto& k : r.report.kernels) {
    saw_d0 |= k.name.rfind("d0.", 0) == 0;
    saw_d1 |= k.name.rfind("d1.", 0) == 0;
  }
  EXPECT_TRUE(saw_d0);
  EXPECT_TRUE(saw_d1);
  std::uint64_t d2d = 0;
  for (const auto& d : r.devices) d2d += d.report.d2d.bytes;
  EXPECT_EQ(r.report.d2d.bytes, d2d);
}

// ---------------------------------------------------------------------------
// Table I quality bound: the PR's acceptance criterion, as a regression
// test. Sharded D-ldg at P in {1, 2, 4} must color every suite graph with
// at most 1.15x the single-device color count (denom=64 scale).

class MultiDevQuality
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {
};

TEST_P(MultiDevQuality, WithinColorBudgetOfSingleDevice) {
  const auto& [name, parts] = GetParam();
  const CsrGraph g = graph::make_suite_graph(name, 64);
  RunOptions run;
  const RunResult single = run_scheme(Scheme::kDataLdg, g, run);

  const auto multi = run_multidev(g, parts, PartitionKind::kContiguous,
                                  /*verify_ghosts=*/false);
  EXPECT_TRUE(IsGreedyColoring(g, multi.coloring));
  EXPECT_LE(multi.num_colors,
            static_cast<color_t>(
                std::ceil(1.15 * static_cast<double>(single.num_colors))))
      << name << " P=" << parts << ": " << multi.num_colors << " vs "
      << single.num_colors << " single-device";
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const auto& e : graph::suite_entries()) names.push_back(e.name);
  return names;
}

TEST(MultiDevTest, BfsPartitionWithinColorBudget) {
  // The edge-cut-aware BFS partitioner with a one-round deferral window
  // must land within 1.1x of the single-device color count on both R-MAT
  // graphs (the overlap PR's quality bar for the new partitioner).
  for (const std::string name : {"rmat-er", "rmat-g"}) {
    const CsrGraph g = graph::make_suite_graph(name, 64);
    RunOptions run;
    const RunResult single = run_scheme(Scheme::kDataLdg, g, run);

    multidev::MultiDevOptions opts;
    opts.num_devices = 4;
    opts.partitioner = PartitionKind::kBfsBlocks;
    opts.use_ldg = true;
    opts.defer_rounds = 1;
    const auto multi = multidev::multidev_color(g, opts);
    EXPECT_TRUE(IsGreedyColoring(g, multi.coloring)) << name;
    EXPECT_LE(multi.num_colors,
              static_cast<color_t>(
                  std::ceil(1.1 * static_cast<double>(single.num_colors))))
        << name << ": " << multi.num_colors << " vs " << single.num_colors
        << " single-device";
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableI, MultiDevQuality,
    ::testing::Combine(::testing::ValuesIn(suite_names()),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto& info) {
      std::string n = std::get<0>(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_P" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
