// The per-SM event loop (TimingEngine::run_sm), pinned on three victim
// kernels whose exact KernelStats cover its scheduling paths: MSHR
// throttling under scattered loads, barrier release with tied ready times
// (including warps whose last op is the barrier), and same-word atomics.
// Every counter and every floating-point stall sum must match bit for bit,
// at one and at four host threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "simt/device.hpp"
#include "simt/timing.hpp"

namespace {

using namespace speckle::simt;

constexpr std::size_t kStalls = static_cast<std::size_t>(Stall::kCount);

/// The KernelStats fields the event loop produces.
struct Pinned {
  std::uint64_t cycles, warp_insts, gld_transactions, gst_transactions;
  std::uint64_t ro_hits, ro_misses, l2_hits, l2_misses, dram_bytes, atomics;
  std::array<double, kStalls> stalls;  ///< Stall order
  double busy, total;
};

/// The stats as a `Pinned` initializer, so a deliberate model change can
/// re-pin from the failure message.
std::string as_literal(const KernelStats& s) {
  char buf[1024];
  const auto& c = s.stalls.cycles;
  std::snprintf(buf, sizeof(buf),
                "{%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu,\n"
                " {%.17g, %.17g, %.17g, %.17g, %.17g, %.17g},\n"
                " %.17g, %.17g}",
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.warp_insts),
                static_cast<unsigned long long>(s.gld_transactions),
                static_cast<unsigned long long>(s.gst_transactions),
                static_cast<unsigned long long>(s.ro_hits),
                static_cast<unsigned long long>(s.ro_misses),
                static_cast<unsigned long long>(s.l2_hits),
                static_cast<unsigned long long>(s.l2_misses),
                static_cast<unsigned long long>(s.dram_bytes),
                static_cast<unsigned long long>(s.atomics), c[0], c[1], c[2], c[3],
                c[4], c[5], s.stalls.busy, s.stalls.total);
  return buf;
}

void expect_pinned(const KernelStats& s, const Pinned& p) {
  SCOPED_TRACE("actual: " + as_literal(s));
  EXPECT_EQ(s.cycles, p.cycles);
  EXPECT_EQ(s.warp_insts, p.warp_insts);
  EXPECT_EQ(s.gld_transactions, p.gld_transactions);
  EXPECT_EQ(s.gst_transactions, p.gst_transactions);
  EXPECT_EQ(s.ro_hits, p.ro_hits);
  EXPECT_EQ(s.ro_misses, p.ro_misses);
  EXPECT_EQ(s.l2_hits, p.l2_hits);
  EXPECT_EQ(s.l2_misses, p.l2_misses);
  EXPECT_EQ(s.dram_bytes, p.dram_bytes);
  EXPECT_EQ(s.atomics, p.atomics);
  for (std::size_t r = 0; r < kStalls; ++r) {
    EXPECT_EQ(s.stalls.cycles[r], p.stalls[r]) << stall_name(static_cast<Stall>(r));
  }
  EXPECT_EQ(s.stalls.busy, p.busy);
  EXPECT_EQ(s.stalls.total, p.total);
}

DeviceConfig with_threads(std::uint32_t threads) {
  DeviceConfig cfg = DeviceConfig::k20c();
  cfg.host_threads = threads;
  return cfg;
}

/// (a) Two waves of loads that each touch 32 distinct lines: 16 warps per
/// SM put 512 misses in flight against 44 MSHRs, then a scattered second
/// load mixes L2 hits into the queue.
KernelStats scattered_loads(DeviceConfig cfg) {
  Device dev(cfg);
  const std::uint32_t n = 26 * 256;
  auto src = dev.alloc<std::uint32_t>(static_cast<std::size_t>(n) * 32, "src");
  auto dst = dev.alloc<std::uint32_t>(n, "dst");
  return dev.launch({.grid_blocks = 26, .block_threads = 256}, "scatter",
                    [&](Thread& t) {
                      const auto i = t.global_id();
                      const std::uint32_t a = t.ld(src, i * 32);
                      t.compute(4);
                      const std::uint32_t b = t.ld(src, (i * 7919 % n) * 32 + 1);
                      t.st(dst, i, a + b);
                    });
}

/// (b) Three phases with two barriers. Every warp of a block starts at the
/// same cycle and leaves each barrier at the same cycle, so the scheduler
/// breaks ties by warp index; one warp runs long in the middle phase, so
/// the others park; warps 1..3 have no work in the last phase, so their
/// last op is the barrier itself.
KernelStats phased_barriers(DeviceConfig cfg) {
  Device dev(cfg);
  const std::uint32_t n = 26 * 128;
  auto in = dev.alloc<std::uint32_t>(n, "in");
  auto out = dev.alloc<std::uint32_t>(n, "out");
  for (std::uint32_t i = 0; i < n; ++i) in[i] = i * 3 + 1;
  const std::vector<Kernel> phases = {
      [&](Thread& t) {
        t.compute(3);
        t.shared_st(t.thread_in_block(), t.ld(in, t.global_id()));
      },
      [&](Thread& t) {
        const std::uint32_t tid = t.thread_in_block();
        // The warps leave the barrier tied; the first to issue misses on
        // the block's shared line and the rest hit, so the issue order
        // decides which warp waits longest.
        const std::uint32_t x = t.ldg(in, t.block() * 32);
        // Warp 2 arrives late, so its siblings park at the next barrier.
        if (t.warp_in_block() == 2) t.compute(8 + t.block() % 5);
        const std::uint32_t v =
            t.shared_ld((tid + 1) % 128) + t.shared_ld((tid + 31) % 128);
        t.shared_st(tid, v + x);
      },
      [&](Thread& t) {
        if (t.warp_in_block() == 0) {
          t.st(out, t.global_id(), t.shared_ld(t.thread_in_block()));
        }
      },
  };
  return dev.launch_phased(
      {.grid_blocks = 26, .block_threads = 128, .smem_bytes_per_block = 512},
      "phased", phases);
}

/// (c) Every thread of 13 blocks adds to one word.
KernelStats same_word_atomics(DeviceConfig cfg, std::uint32_t* total) {
  Device dev(cfg);
  auto counter = dev.alloc<std::uint32_t>(1, "counter");
  counter[0] = 0;
  KernelStats stats = dev.launch({.grid_blocks = 13, .block_threads = 128}, "atomics",
                                 [&](Thread& t) {
                                   t.atomic_add(counter, 0, 1U);
                                   t.compute(1);
                                 });
  *total = counter[0];
  return stats;
}

class TimingPinned : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TimingPinned, ScatteredLoadsThroughFullMshrs) {
  const KernelStats s = scattered_loads(with_threads(GetParam()));
  expect_pinned(s, {8641, 1456, 13312, 208, 0, 0, 512, 12800, 416256, 0,
                    {59026, 1280.5, 0, 0, 0, 5779},
                    364, 66449.5});
}

TEST_P(TimingPinned, PhasedBarriersWithTiedWarps) {
  const KernelStats s = phased_barriers(with_threads(GetParam()));
  expect_pinned(s, {4180, 1454, 208, 26, 78, 26, 2, 128, 4928, 0,
                    {7284.25, 805.75, 0, 0, 0, 3},
                    363.5, 8456.5});
}

TEST_P(TimingPinned, AtomicsToOneWord) {
  std::uint32_t total = 0;
  const KernelStats s = same_word_atomics(with_threads(GetParam()), &total);
  EXPECT_EQ(total, 13U * 128U);
  expect_pinned(s, {5682, 104, 0, 0, 0, 0, 0, 0, 0, 1664,
                    {0, 0, 0, 0, 27956.5, 0},
                    26, 27982.5});
}

INSTANTIATE_TEST_SUITE_P(Threads, TimingPinned, ::testing::Values(1U, 4U));

TEST(Timing, ScatteredLoadsAreMshrBound) {
  // The pinned scatter kernel really exercises the throttle: with MSHRs to
  // spare the same kernel finishes sooner.
  DeviceConfig roomy = with_threads(1);
  roomy.mshrs_per_sm = 4096;
  EXPECT_LT(scattered_loads(roomy).cycles, scattered_loads(with_threads(1)).cycles);
}

// ---- the event loop's two queues against std::priority_queue ------------
// Keys are small integers, so most operations meet equal keys.

TEST(Timing, WinnerTreeMatchesPriorityQueue) {
  using Item = std::pair<double, std::uint32_t>;
  std::mt19937_64 rng(20261020);
  std::size_t ops = 0;
  for (const std::uint32_t n : {1U, 2U, 5U, 8U, 37U, 64U}) {
    SCOPED_TRACE(n);
    WarpWinnerTree tree;
    tree.reset(n, 0.0);
    std::priority_queue<Item, std::vector<Item>, std::greater<>> ref;
    for (std::uint32_t i = 0; i < n; ++i) ref.emplace(0.0, i);
    std::vector<std::uint32_t> parked;
    double now = 0.0;
    for (int step = 0; step < 20000; ++step, ++ops) {
      if (ref.empty()) {
        ASSERT_EQ(tree.top_key(), WarpWinnerTree::kNever);
      } else {
        // Issue from the top: re-key it later (or equal), or park it.
        ASSERT_EQ(tree.top_key(), ref.top().first);
        ASSERT_EQ(tree.top(), ref.top().second);
        const std::uint32_t idx = ref.top().second;
        now = ref.top().first;
        ref.pop();
        if (rng() % 4 == 0) {
          parked.push_back(idx);
          tree.update(idx, WarpWinnerTree::kNever);
        } else {
          const double next = now + static_cast<double>(rng() % 3);
          ref.emplace(next, idx);
          tree.update(idx, next);
        }
      }
      // Release a parked slot, as a barrier does, at or after `now`.
      if (!parked.empty() && (ref.empty() || rng() % 3 == 0)) {
        const std::size_t at = rng() % parked.size();
        const std::uint32_t idx = parked[at];
        parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(at));
        const double key = now + static_cast<double>(rng() % 2);
        ref.emplace(key, idx);
        tree.update(idx, key);
      }
    }
  }
  EXPECT_GE(ops, 100000U);
}

TEST(Timing, MshrQueueMatchesPriorityQueue) {
  std::mt19937_64 rng(7);
  std::size_t ops = 0;
  for (const std::size_t capacity : {1U, 3U, 44U}) {
    SCOPED_TRACE(capacity);
    std::vector<double> storage(MshrQueue::storage_size(capacity));
    MshrQueue q(storage.data(), capacity);
    std::priority_queue<double, std::vector<double>, std::greater<>> ref;
    auto expect_same = [&] {
      ASSERT_EQ(q.size(), ref.size());
      if (!ref.empty()) {
        ASSERT_EQ(q.min(), ref.top());
      }
    };
    double clock = 0.0;
    for (const std::size_t stop = ops + 40000; ops < stop;) {
      // One warp load: up to 32 transactions one cycle apart, each popping
      // the completions due by then and, when full, the earliest one.
      double issue = clock;
      const std::uint64_t transactions = 1 + rng() % 32;
      for (std::uint64_t t = 0; t < transactions; ++t, ++ops) {
        issue += 1.0;
        q.drain(issue);
        while (!ref.empty() && ref.top() <= issue) ref.pop();
        ASSERT_NO_FATAL_FAILURE(expect_same());
        if (q.size() >= capacity) {
          issue = std::max(issue, q.min());
          q.pop();
          ref.pop();
        }
        const double latency = rng() % 2 == 0 ? 300.0 : static_cast<double>(rng() % 4);
        q.push(issue + latency);
        ref.push(issue + latency);
        ASSERT_NO_FATAL_FAILURE(expect_same());
      }
      clock += static_cast<double>(rng() % 3);
    }
  }
  EXPECT_GE(ops, 100000U);
}

}  // namespace
