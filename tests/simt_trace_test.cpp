// Trace recording, coalescing, and warp-merge tests — the mechanisms that
// turn per-thread behavior into SIMT memory transactions.

#include <gtest/gtest.h>

#include "simt/trace.hpp"

namespace {

using namespace speckle::simt;

// The per-thread op must stay register-friendly: the SoA storage packs it
// into parallel arrays, and the materialized view must not regress past
// 16 bytes (addr + count + kind + space + size).
static_assert(sizeof(ThreadOp) <= 16, "ThreadOp exceeds 16 bytes");

TEST(ThreadTrace, AdjacentComputeOpsMerge) {
  ThreadTrace trace;
  trace.compute(3);
  trace.compute(4);
  ASSERT_EQ(trace.size(), 1U);
  EXPECT_EQ(trace.op(0).count, 7U);
}

TEST(ThreadTrace, MemoryBreaksComputeMerging) {
  ThreadTrace trace;
  trace.compute(1);
  trace.memory(OpKind::kLoad, Space::kGlobal, 0, 4);
  trace.compute(1);
  EXPECT_EQ(trace.size(), 3U);
}

TEST(ThreadTrace, ZeroComputeIsDropped) {
  ThreadTrace trace;
  trace.compute(0);
  EXPECT_TRUE(trace.empty());
}

TEST(ThreadTrace, ComputeMergingSurvivesClearReuse) {
  // clear() retains the SoA buffers (arena reuse); merging must behave
  // identically on the second use of the same trace object.
  ThreadTrace trace;
  trace.compute(3);
  trace.memory(OpKind::kLoad, Space::kGlobal, 0, 4);
  trace.clear();
  EXPECT_TRUE(trace.empty());
  trace.compute(5);
  trace.compute(6);
  ASSERT_EQ(trace.size(), 1U);
  EXPECT_EQ(trace.op(0).count, 11U);
  EXPECT_EQ(trace.op(0).kind, OpKind::kCompute);
}

TEST(Coalesce, SameLineCollapsesToOneTransaction) {
  const std::vector<std::uint64_t> addrs = {0, 4, 8, 124};
  const std::vector<std::uint8_t> sizes = {4, 4, 4, 4};
  const auto lines = coalesce(addrs, sizes, 128);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0], 0U);
}

TEST(Coalesce, ScatteredAddressesOneTransactionEach) {
  std::vector<std::uint64_t> addrs;
  std::vector<std::uint8_t> sizes;
  for (int i = 0; i < 32; ++i) {
    addrs.push_back(static_cast<std::uint64_t>(i) * 4096);
    sizes.push_back(4);
  }
  EXPECT_EQ(coalesce(addrs, sizes, 128).size(), 32U);
}

TEST(Coalesce, AccessStraddlingLineTakesTwo) {
  const std::vector<std::uint64_t> addrs = {126};
  const std::vector<std::uint8_t> sizes = {4};
  const auto lines = coalesce(addrs, sizes, 128);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0], 0U);
  EXPECT_EQ(lines[1], 128U);
}

TEST(Coalescer, OutOfOrderAddressesMatchSortUnique) {
  // The streaming coalescer must emit the same sorted-unique line set the
  // old sort+unique implementation produced, whatever the lane order.
  Coalescer co(128);
  const std::uint64_t addrs[] = {512, 0, 256, 0, 768, 260};
  for (std::uint64_t a : addrs) co.add(a, 4);
  const auto lines = co.lines();
  ASSERT_EQ(lines.size(), 4U);
  EXPECT_EQ(lines[0], 0U);
  EXPECT_EQ(lines[1], 256U);
  EXPECT_EQ(lines[2], 512U);
  EXPECT_EQ(lines[3], 768U);

  co.reset();
  EXPECT_TRUE(co.lines().empty());
  co.add(128, 4);
  ASSERT_EQ(co.lines().size(), 1U);
  EXPECT_EQ(co.lines()[0], 128U);
}

TEST(MergeWarp, UniformLanesFormOneInstruction) {
  std::vector<ThreadTrace> lanes(4);
  for (std::size_t l = 0; l < 4; ++l) {
    lanes[l].memory(OpKind::kLoad, Space::kGlobal, l * 4, 4);
  }
  const WarpTrace warp = merge_warp(lanes, 128);
  ASSERT_EQ(warp.size(), 1U);
  EXPECT_EQ(warp.op(0).active_lanes, 4U);
  EXPECT_EQ(warp.op(0).addrs.size(), 1U);  // coalesced to one line
}

TEST(MergeWarp, ShorterLanesDropOut) {
  // Lane 0 runs 3 loads, lane 1 only 1 — degree-imbalance divergence.
  std::vector<ThreadTrace> lanes(2);
  for (int i = 0; i < 3; ++i) lanes[0].memory(OpKind::kLoad, Space::kGlobal, i * 256, 4);
  lanes[1].memory(OpKind::kLoad, Space::kGlobal, 4096, 4);
  const WarpTrace warp = merge_warp(lanes, 128);
  ASSERT_EQ(warp.size(), 3U);
  EXPECT_EQ(warp.op(0).active_lanes, 2U);
  EXPECT_EQ(warp.op(1).active_lanes, 1U);
  EXPECT_EQ(warp.op(2).active_lanes, 1U);
}

TEST(MergeWarp, DivergentKindsSerialize) {
  std::vector<ThreadTrace> lanes(2);
  lanes[0].compute(2);
  lanes[1].memory(OpKind::kLoad, Space::kGlobal, 0, 4);
  const WarpTrace warp = merge_warp(lanes, 128);
  ASSERT_EQ(warp.size(), 2U);
  EXPECT_EQ(warp.op(0).kind, OpKind::kCompute);
  EXPECT_EQ(warp.op(1).kind, OpKind::kLoad);
}

TEST(MergeWarp, SpacesDoNotMix) {
  std::vector<ThreadTrace> lanes(2);
  lanes[0].memory(OpKind::kLoad, Space::kGlobal, 0, 4);
  lanes[1].memory(OpKind::kLoad, Space::kReadOnly, 0, 4);
  const WarpTrace warp = merge_warp(lanes, 128);
  ASSERT_EQ(warp.size(), 2U);
  EXPECT_NE(warp.op(0).space, warp.op(1).space);
}

TEST(MergeWarp, ComputeTakesMaxCount) {
  std::vector<ThreadTrace> lanes(2);
  lanes[0].compute(3);
  lanes[1].compute(9);
  const WarpTrace warp = merge_warp(lanes, 128);
  ASSERT_EQ(warp.size(), 1U);
  EXPECT_EQ(warp.op(0).inst_count, 9U);
}

TEST(MergeWarp, AtomicsKeepPerLaneAddresses) {
  std::vector<ThreadTrace> lanes(3);
  for (std::size_t l = 0; l < 3; ++l) {
    lanes[l].memory(OpKind::kAtomic, Space::kGlobal, 64, 4);  // same word
  }
  const WarpTrace warp = merge_warp(lanes, 128);
  ASSERT_EQ(warp.size(), 1U);
  EXPECT_EQ(warp.op(0).addrs.size(), 3U);  // not coalesced: serialization
}

TEST(MergeWarp, SyncActsAsAlignmentFence) {
  // Lane 0: [load, sync]; lane 1: [load, load, sync]. The sync must form a
  // single warp barrier AFTER both lanes' loads — not interleave.
  std::vector<ThreadTrace> lanes(2);
  lanes[0].memory(OpKind::kLoad, Space::kGlobal, 0, 4);
  lanes[0].sync();
  lanes[1].memory(OpKind::kLoad, Space::kGlobal, 256, 4);
  lanes[1].memory(OpKind::kLoad, Space::kGlobal, 512, 4);
  lanes[1].sync();
  const WarpTrace warp = merge_warp(lanes, 128);
  std::size_t sync_count = 0;
  for (std::size_t i = 0; i < warp.size(); ++i) {
    const WarpOpView op = warp.op(i);
    if (op.kind == OpKind::kSync) {
      ++sync_count;
      EXPECT_EQ(op.active_lanes, 2U);
    }
  }
  EXPECT_EQ(sync_count, 1U);
  EXPECT_EQ(warp.op(warp.size() - 1).kind, OpKind::kSync);
}

TEST(MergeWarp, ReusedOutputIsClearedFirst) {
  // merge_warp(out) must clear but not free: a BlockWork slot reused across
  // waves sees only the new block's instructions.
  std::vector<ThreadTrace> lanes(2);
  lanes[0].memory(OpKind::kLoad, Space::kGlobal, 0, 4);
  lanes[1].memory(OpKind::kLoad, Space::kGlobal, 4, 4);
  WarpTrace out;
  merge_warp(lanes, 128, out);
  ASSERT_EQ(out.size(), 1U);

  for (ThreadTrace& lane : lanes) lane.clear();
  lanes[0].compute(2);
  lanes[1].compute(2);
  merge_warp(lanes, 128, out);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out.op(0).kind, OpKind::kCompute);
  EXPECT_TRUE(out.op(0).addrs.empty());
}

TEST(MergeWarp, EmptyLanesMergeToNothing) {
  // Lanes that recorded nothing (an early-exit guard on every thread) hold
  // null op streams; the lockstep compare must not hand them to memcmp.
  std::vector<ThreadTrace> lanes(4);
  const WarpTrace warp = merge_warp(lanes, 128);
  EXPECT_EQ(warp.size(), 0U);
}

}  // namespace
