/// \file bench_micro_simt.cpp
/// google-benchmark micro-benchmarks for the SIMT simulator itself:
/// simulation throughput for coalesced/scattered kernels, the scan-push
/// primitive, the per-SM event loop, and the cache model. These measure
/// the *simulator's* host cost (simulated results are deterministic; see
/// the fig benches for simulated metrics). ctest runs every case once as
/// the `bench_smoke` label, with no timing gate.

#include <benchmark/benchmark.h>

#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/timing.hpp"
#include "simt/worklist.hpp"

namespace {

using namespace speckle::simt;

void BM_SimCoalescedCopy(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Device dev;
    auto src = dev.alloc<std::uint32_t>(n, "src");
    auto dst = dev.alloc<std::uint32_t>(n, "dst");
    dev.launch({.grid_blocks = n / 128, .block_threads = 128}, "copy",
               [&](Thread& t) {
                 const auto i = t.global_id();
                 t.st(dst, i, t.ld(src, i));
               });
    benchmark::DoNotOptimize(dev.timeline_cycles());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimCoalescedCopy)->Arg(1 << 14)->Arg(1 << 17);

void BM_SimScatteredGather(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Device dev;
    auto idx = dev.alloc<std::uint32_t>(n, "idx");
    auto dst = dev.alloc<std::uint32_t>(n, "dst");
    for (std::uint32_t i = 0; i < n; ++i) idx[i] = (i * 2654435761U) % n;
    dev.launch({.grid_blocks = n / 128, .block_threads = 128}, "gather",
               [&](Thread& t) {
                 const auto i = t.global_id();
                 t.st(dst, i, t.ld(idx, t.ld(idx, i)));
               });
    benchmark::DoNotOptimize(dev.timeline_cycles());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimScatteredGather)->Arg(1 << 14)->Arg(1 << 17);

void BM_SimScanPush(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Device dev;
    Worklist wl(dev, n);
    dev.launch({.grid_blocks = n / 128, .block_threads = 128}, "push",
               [&](Thread& t) {
                 t.scan_push(wl, static_cast<std::uint32_t>(t.global_id()));
               });
    benchmark::DoNotOptimize(wl.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimScanPush)->Arg(1 << 14)->Arg(1 << 17);

void BM_SimAtomicPush(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Device dev;
    Worklist wl(dev, n);
    dev.launch({.grid_blocks = n / 128, .block_threads = 128}, "apush",
               [&](Thread& t) {
                 const auto slot = t.atomic_add(wl.tail(), 0, 1U);
                 t.st(wl.items(), slot, static_cast<std::uint32_t>(t.global_id()));
               });
    benchmark::DoNotOptimize(wl.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimAtomicPush)->Arg(1 << 14)->Arg(1 << 17);

void BM_CacheModelAccess(benchmark::State& state) {
  CacheModel cache(1280 * 1024, 128, 16);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr = (addr + 128 * 7919) % (1ULL << 30) / 128 * 128;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheModelAccess);

// ---- isolated hot-loop benches (docs/simulator.md §10) -------------------
// The three loops below are the simulator's measured hot paths: the
// per-thread trace append + warp merge, the streaming coalescer, and the
// cache probe. They run on synthetic streams so a regression shows up in
// nanoseconds-per-op instead of minutes of bench_fig7.

/// Trace append + index-aligned merge for one fully-converged warp: each
/// lane appends (compute, load)* then the 32 streams merge. Exercises the
/// adjacent-compute merging, the SoA append path, and the lockstep merge.
void BM_TraceAppendMergeConverged(benchmark::State& state) {
  const std::size_t ops = static_cast<std::size_t>(state.range(0));
  std::vector<ThreadTrace> lanes(32);
  WarpTrace out;
  for (auto _ : state) {
    for (std::uint32_t l = 0; l < 32; ++l) {
      ThreadTrace& t = lanes[l];
      t.clear();
      for (std::size_t i = 0; i < ops; ++i) {
        t.compute(2);
        t.compute(3);  // merges into the previous compute op
        t.memory(OpKind::kLoad, Space::kGlobal, (i * 32 + l) * 4, 4);
      }
    }
    merge_warp(lanes, 128, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops) * 32);
}
BENCHMARK(BM_TraceAppendMergeConverged)->Arg(256);

/// Same shape but lane 7 issues an extra compute op first, so every round
/// takes the divergent leader-scan path.
void BM_TraceMergeDivergent(benchmark::State& state) {
  const std::size_t ops = static_cast<std::size_t>(state.range(0));
  std::vector<ThreadTrace> lanes(32);
  for (std::uint32_t l = 0; l < 32; ++l) {
    ThreadTrace& t = lanes[l];
    if (l == 7) t.memory(OpKind::kLoad, Space::kGlobal, 0, 4);
    for (std::size_t i = 0; i < ops; ++i) {
      t.compute(1);
      t.memory(OpKind::kLoad, Space::kGlobal, (i * 32 + l) * 4, 4);
    }
  }
  WarpTrace out;
  for (auto _ : state) {
    merge_warp(lanes, 128, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops) * 32);
}
BENCHMARK(BM_TraceMergeDivergent)->Arg(256);

/// Streaming coalescer, ascending addresses (the fast append path): 32
/// unit-stride 4-byte lanes collapsing into four 128-byte lines.
void BM_CoalescerAscending(benchmark::State& state) {
  Coalescer co(128);
  std::uint64_t base = 0;
  for (auto _ : state) {
    co.reset();
    for (std::uint64_t l = 0; l < 32; ++l) co.add(base + l * 4, 4);
    benchmark::DoNotOptimize(co.lines().size());
    base += 512;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_CoalescerAscending);

/// Streaming coalescer, scattered addresses (binary-search insert path).
void BM_CoalescerScattered(benchmark::State& state) {
  Coalescer co(128);
  for (auto _ : state) {
    co.reset();
    std::uint64_t a = 12345;
    for (std::uint64_t l = 0; l < 32; ++l) {
      a = a * 6364136223846793005ULL + 1442695040888963407ULL;
      co.add((a >> 20) & ~std::uint64_t{3}, 4);
    }
    benchmark::DoNotOptimize(co.lines().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_CoalescerScattered);

// ---- wave-commit isolation (the epoch-overlay swap/merge path) -----------
// Drive MemorySystem wave views directly — no event loop, no kernels — so
// the commit path (reset_view epoch bump, COW page faults, and the
// commit_wave swap-vs-merge decision) has its own A/B number. Three access
// shapes: one SM streaming densely (every page single-owner, committed by
// page copy), every SM touching a small disjoint slice (sparse, still
// single-owner), and every SM hammering the same lines (every page
// contended, committed by the SM-ordered recency merge).

/// One wave over `mem`: SM `sm` loads `count` consecutive lines from `base`.
void touch_lines(MemorySystem::WaveView& view, std::uint64_t base,
                 std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    benchmark::DoNotOptimize(view.load(Space::kGlobal, base + i * 128));
  }
}

void BM_WaveCommitDense(benchmark::State& state) {
  const DeviceConfig dev = DeviceConfig::k20c().scaled(8);
  MemorySystem mem(dev);
  std::vector<MemorySystem::WaveView> views;
  for (std::uint32_t sm = 0; sm < dev.num_sms; ++sm) {
    views.push_back(mem.wave_view(sm));
  }
  const std::uint64_t lines = 4096;  // sweeps every set many times over
  std::uint64_t wave = 0;
  for (auto _ : state) {
    for (std::uint32_t sm = 0; sm < dev.num_sms; ++sm) mem.reset_view(views[sm], sm);
    touch_lines(views[0], wave * lines * 128, lines);
    mem.commit_wave(views);
    ++wave;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines));
}
BENCHMARK(BM_WaveCommitDense);

void BM_WaveCommitSparse(benchmark::State& state) {
  const DeviceConfig dev = DeviceConfig::k20c().scaled(8);
  MemorySystem mem(dev);
  std::vector<MemorySystem::WaveView> views;
  for (std::uint32_t sm = 0; sm < dev.num_sms; ++sm) {
    views.push_back(mem.wave_view(sm));
  }
  const std::uint64_t lines = 32;  // a few pages per SM, disjoint regions
  std::uint64_t wave = 0;
  for (auto _ : state) {
    for (std::uint32_t sm = 0; sm < dev.num_sms; ++sm) {
      mem.reset_view(views[sm], sm);
      touch_lines(views[sm], (wave * dev.num_sms + sm) * (1 << 24), lines);
    }
    mem.commit_wave(views);
    ++wave;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines) * dev.num_sms);
}
BENCHMARK(BM_WaveCommitSparse);

void BM_WaveCommitContended(benchmark::State& state) {
  const DeviceConfig dev = DeviceConfig::k20c().scaled(8);
  MemorySystem mem(dev);
  std::vector<MemorySystem::WaveView> views;
  for (std::uint32_t sm = 0; sm < dev.num_sms; ++sm) {
    views.push_back(mem.wave_view(sm));
  }
  const std::uint64_t lines = 4096;  // all SMs sweep the same range
  std::uint64_t wave = 0;
  for (auto _ : state) {
    for (std::uint32_t sm = 0; sm < dev.num_sms; ++sm) {
      mem.reset_view(views[sm], sm);
      // Per-SM offset keeps the streams unaligned, like real interleaving,
      // while still colliding on every cache set.
      touch_lines(views[sm], (wave * lines + sm * 7) * 128, lines);
    }
    mem.commit_wave(views);
    ++wave;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines) * dev.num_sms);
}
BENCHMARK(BM_WaveCommitContended);

// ---- event-loop isolation (TimingEngine::run_sm) ------------------------
// One wave of prebuilt warp traces through TimingEngine::run_wave: no
// kernel execution and no warp merge in the timed region, so a change to
// the scheduler or the MSHR model is sized in seconds. Items are warp
// instructions, so the per-item time reads like speckbench's
// simt.host_ns_per_warp_inst.

/// Every SM's resident blocks for one wave. Lane `lane` of warp `warp` (a
/// wave-wide index) is filled by `lane_ops(warp, lane, trace)`.
struct EventLoopWave {
  std::vector<BlockWork> blocks;
  std::vector<std::vector<const BlockWork*>> per_sm;
};

template <typename LaneOps>
EventLoopWave build_wave(const DeviceConfig& dev, std::uint32_t blocks_per_sm,
                         std::uint32_t warps_per_block, LaneOps lane_ops) {
  EventLoopWave wave;
  wave.blocks.resize(static_cast<std::size_t>(dev.num_sms) * blocks_per_sm);
  wave.per_sm.resize(dev.num_sms);
  std::vector<ThreadTrace> lanes(dev.warp_size);
  std::uint32_t warp = 0;
  for (std::size_t b = 0; b < wave.blocks.size(); ++b) {
    BlockWork& work = wave.blocks[b];
    work.warps.resize(warps_per_block);
    work.active = warps_per_block;
    for (std::uint32_t w = 0; w < warps_per_block; ++w, ++warp) {
      for (std::uint32_t l = 0; l < dev.warp_size; ++l) {
        lanes[l].clear();
        lane_ops(warp, l, lanes[l]);
      }
      merge_warp(lanes, dev.line_bytes, work.warps[w]);
    }
    wave.per_sm[b % dev.num_sms].push_back(&work);
  }
  return wave;
}

void run_event_loop(benchmark::State& state, const DeviceConfig& dev,
                    const EventLoopWave& wave) {
  MemorySystem memory(dev);
  TimingEngine engine(dev, memory);
  std::uint64_t warp_insts = 0;
  for (auto _ : state) {
    KernelStats stats;
    benchmark::DoNotOptimize(engine.run_wave(wave.per_sm, 0.0, stats));
    warp_insts += stats.warp_insts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(warp_insts));
}

std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 31)) * 0x9e3779b97f4a7c15ULL;
  return x ^ (x >> 29);
}

/// MSHR-saturating wave: 16 warps per SM, each lane loading its own random
/// word of a 64 MiB range 16 times, so every load is 32 transactions that
/// mostly miss to DRAM against 44 MSHRs.
void BM_EventLoopMshrScatter(benchmark::State& state) {
  const DeviceConfig dev = DeviceConfig::k20c();
  const EventLoopWave wave = build_wave(
      dev, 2, 8, [](std::uint32_t warp, std::uint32_t lane, ThreadTrace& t) {
        for (std::uint64_t op = 0; op < 16; ++op) {
          const std::uint64_t word = mix((warp * 32ULL + lane) * 16 + op);
          t.memory(OpKind::kLoad, Space::kGlobal, (word % (16ULL << 20)) * 4, 4);
          t.compute(2);
        }
      });
  run_event_loop(state, dev, wave);
}
BENCHMARK(BM_EventLoopMshrScatter);

/// Warp-centric phased wave in the shape of the multi-device color kernel:
/// 64 warps per SM, one vertex per warp. Phase A: broadcast loads of the
/// item and its row bounds, lanes strided over 4..19 neighbors (a
/// coalesced index load and a scattered color load each), three
/// scratchpad stores; barrier; phase B: lane 0 folds 96 scratchpad words
/// and stores the color. Issue-heavy, few DRAM misses.
void BM_EventLoopPhasedWarpCentric(benchmark::State& state) {
  const DeviceConfig dev = DeviceConfig::k20c();
  constexpr std::uint64_t kItems = 0, kRow = 1ULL << 24, kCol = 2ULL << 24,
                          kColors = 3ULL << 24, kVertices = 1ULL << 18;
  const EventLoopWave wave = build_wave(
      dev, 16, 4, [](std::uint32_t warp, std::uint32_t lane, ThreadTrace& t) {
        const std::uint64_t v = mix(warp) % kVertices;
        const std::uint64_t degree = 4 + v % 16;
        t.memory(OpKind::kLoad, Space::kGlobal, kItems + warp * 4ULL, 4);
        t.memory(OpKind::kLoad, Space::kReadOnly, kRow + v * 4, 4);
        t.memory(OpKind::kLoad, Space::kReadOnly, kRow + v * 4 + 4, 4);
        t.compute(3);
        for (std::uint64_t e = lane; e < degree; e += 32) {
          t.memory(OpKind::kLoad, Space::kReadOnly, kCol + (v * 16 + e) * 4, 4);
          t.memory(OpKind::kLoad, Space::kGlobal,
                   kColors + mix(v * 16 + e) % kVertices * 4, 4);
          t.compute(3);
        }
        for (int i = 0; i < 3; ++i) t.shared_access();
        t.sync();
        if (lane != 0) return;
        t.memory(OpKind::kLoad, Space::kGlobal, kItems + warp * 4ULL, 4);
        for (int i = 0; i < 96; ++i) t.shared_access();
        t.compute(34);
        t.memory(OpKind::kStore, Space::kGlobal, kColors + v * 4, 4);
      });
  run_event_loop(state, dev, wave);
}
BENCHMARK(BM_EventLoopPhasedWarpCentric);

/// Hit-dominated probe of a small cache (the steady-state L2 pattern):
/// round-robin over half the sets so every access hits after warmup.
void BM_CacheModelHit(benchmark::State& state) {
  CacheModel cache(192 * 1024, 128, 16);  // the denom=8 scaled L2 geometry
  const std::uint64_t lines = 192 * 1024 / 128 / 2;
  std::uint64_t i = 0;
  for (std::uint64_t w = 0; w < lines; ++w) cache.access(w * 128);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(i * 128));
    if (++i == lines) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheModelHit);

}  // namespace

BENCHMARK_MAIN();
