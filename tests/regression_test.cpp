// Golden regression pins for the simulator and the algorithms.
//
// These values are NOT derived from first principles — they pin the current,
// validated behavior of the timing model and the deterministic algorithms so
// that accidental changes (a latency constant, a trace-merge rule, an RNG
// draw order) are caught immediately. If a deliberate model change lands,
// re-baseline the constants here and note it in the commit.

#include <gtest/gtest.h>

#include "coloring/runner.hpp"
#include "graph/builder.hpp"
#include "graph_fixtures.hpp"
#include "simt/device.hpp"

namespace {

using namespace speckle;
using namespace speckle::coloring;
using speckle::testing::spec_graph;

graph::CsrGraph pinned_graph() {
  return spec_graph("rmat:scale=12,edges=24000,seed=42");
}

TEST(Regression, PinnedGraphStructure) {
  const graph::CsrGraph g = pinned_graph();
  EXPECT_EQ(g.num_vertices(), 4096U);
  EXPECT_EQ(g.num_edges(), 47910U);
  EXPECT_EQ(g.max_degree(), 26U);
}

TEST(Regression, PinnedSequentialColoring) {
  const graph::CsrGraph g = pinned_graph();
  const RunResult r = run_scheme(Scheme::kSequential, g);
  EXPECT_EQ(r.num_colors, 9U);
}

TEST(Regression, PinnedSchemeColorsAndIterations) {
  const graph::CsrGraph g = pinned_graph();
  struct Pin {
    Scheme scheme;
    color_t colors;
    std::uint32_t iterations;
  };
  // Baselined 2026-07: deterministic outputs of each scheme on the pinned
  // graph with default options. These survived the parallel wave executor
  // unchanged: speculative (st_racy) kernels keep the serial immediate-
  // visibility semantics, and snapshot-executed kernels commit in block
  // order, so every scheme still computes exactly these values.
  const Pin pins[] = {
      {Scheme::kTopoBase, 9, 3},
      {Scheme::kDataBase, 9, 2},
      {Scheme::kCsrColor, 29, 4},
  };
  for (const Pin& pin : pins) {
    const RunResult r = run_scheme(pin.scheme, g);
    EXPECT_EQ(r.num_colors, pin.colors) << scheme_name(pin.scheme);
    EXPECT_EQ(r.iterations, pin.iterations) << scheme_name(pin.scheme);
  }
}

TEST(Regression, PinnedKernelTiming) {
  // A simple coalesced copy has a fully predictable simulated cost.
  simt::Device dev;
  const std::uint32_t n = 1 << 14;
  auto src = dev.alloc<std::uint32_t>(n);
  auto dst = dev.alloc<std::uint32_t>(n);
  const auto& stats = dev.launch({.grid_blocks = n / 128, .block_threads = 128},
                                 "copy", [&](simt::Thread& t) {
                                   const auto i = t.global_id();
                                   t.st(dst, i, t.ld(src, i));
                                 });
  EXPECT_EQ(stats.gld_transactions, n / 32);
  EXPECT_EQ(stats.gst_transactions, n / 32);
  // Pin the cycle count loosely (5%) so issue-cost tweaks ring alarms while
  // float-noise does not.
  EXPECT_NEAR(static_cast<double>(stats.cycles), 3841.0, 0.05 * 3841.0);
}

TEST(Regression, TimingIsIndependentOfReportOrder) {
  // Running two identical kernels must cost exactly the same, kernel over
  // kernel (L2 warmth aside — second run hits, so it must be FASTER).
  simt::Device dev;
  const std::uint32_t n = 1 << 14;
  auto src = dev.alloc<std::uint32_t>(n);
  auto dst = dev.alloc<std::uint32_t>(n);
  auto body = [&](simt::Thread& t) {
    const auto i = t.global_id();
    t.st(dst, i, t.ld(src, i));
  };
  const auto first = dev.launch({.grid_blocks = n / 128, .block_threads = 128},
                                "first", body).cycles;
  const auto second = dev.launch({.grid_blocks = n / 128, .block_threads = 128},
                                 "second", body).cycles;
  EXPECT_LT(second, first);  // warm L2
}

}  // namespace
