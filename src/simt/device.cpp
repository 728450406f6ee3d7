#include "simt/device.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "simt/worklist.hpp"
#include "support/check.hpp"
#include "support/deadline.hpp"
#include "support/threadpool.hpp"

namespace speckle::simt {

namespace {

std::uint32_t ceil_div(std::uint32_t a, std::uint32_t b) { return (a + b - 1) / b; }

std::uint32_t ceil_log2(std::uint32_t x) {
  std::uint32_t bits = 0;
  while ((1u << bits) < x) ++bits;
  return bits;
}

}  // namespace

void Thread::scan_push(Worklist& wl, std::uint32_t value) {
  // Ballot + local prefix work at the call site; the block-wide compaction
  // is charged at block retirement (flush_scan_pushes).
  compute(3);
  if (block_state_.san != nullptr) {
    block_state_.san->note_push_target(wl.items().base_addr(),
                                       wl.tail().base_addr());
  }
  block_state_.pushes.push_back({&wl, value, thread_in_block_});
}

/// Per-lane scratch: one arena per pool slot, reused for every block that
/// lane executes — trace arrays, block state and the write overlay keep
/// their allocations across blocks and launches. The lane traces live in
/// one flat grow-only array (lane l of warp w at index w*warp_size+l);
/// clear() retains each trace's SoA buffers, so a warm arena executes a
/// block without touching the heap.
struct Device::ExecArena {
  std::vector<ThreadTrace> lanes;  ///< flat [warp][lane], grow-only
  BlockState bstate;
  WriteOverlay overlay;
  san::BlockLog san_log;  ///< used only when the device sanitizes
};

/// A block's speculated side effects, held from its (concurrent) execution
/// until its (ordered) commit slot.
struct Device::BlockResult {
  std::vector<WriteOverlay::Write> writes;
  std::vector<BlockState::AtomicObservation> observations;
  std::vector<BlockState::PendingPush> pushes;
  std::vector<BlockState::DiscardAdd> discard_adds;
  san::BlockLog san_log;
};

Device::Device(DeviceConfig config)
    : config_(config), memory_(config_), engine_(config_, memory_) {
  if (config_.sanitize) {
    san_ = std::make_unique<san::Sanitizer>(config_.line_bytes);
  }
  if (config_.profile) {
    prof_ = std::make_unique<prof::Profiler>(config_);
  }
  if (config_.check) {
    plan_ = std::make_unique<check::LaunchPlan>();
  }
}

Device::~Device() = default;

std::uint64_t Device::allocate_range(std::uint64_t bytes) {
  const std::uint64_t base = next_addr_;
  const std::uint64_t aligned = (bytes + 255) / 256 * 256;
  // Pad with one extra 256-byte unit so distinct buffers never share a
  // cache line and every base stays 256-aligned.
  next_addr_ += aligned + 256;
  return base;
}

const KernelStats& Device::launch(const LaunchConfig& cfg, const std::string& name,
                                  const Kernel& body) {
  return run_grid(cfg, name, {body}, nullptr);
}

const KernelStats& Device::launch_phased(const LaunchConfig& cfg,
                                         const std::string& name,
                                         const std::vector<Kernel>& phases) {
  SPECKLE_CHECK(!phases.empty(), "launch_phased needs at least one phase");
  return run_grid(cfg, name, phases, nullptr);
}

const KernelStats& Device::launch(const LaunchConfig& cfg, const std::string& name,
                                  const check::KernelSpec& spec,
                                  const Kernel& body) {
  return run_grid(cfg, name, {body}, &spec);
}

const KernelStats& Device::launch_phased(const LaunchConfig& cfg,
                                         const std::string& name,
                                         const check::KernelSpec& spec,
                                         const std::vector<Kernel>& phases) {
  SPECKLE_CHECK(!phases.empty(), "launch_phased needs at least one phase");
  return run_grid(cfg, name, phases, &spec);
}

namespace {

/// Apply the block's pending scan_push requests: bump each worklist tail
/// once, write the compacted items, and charge the cost to the warp traces —
/// the CUB-style block scan (log-depth scratchpad traversal + two barriers),
/// ONE tail atomic per block, and coalesced item stores. Runs in the commit
/// phase, so it reads and writes the real (committed) buffers.
/// When sanitizing, a push past the worklist's capacity is clamped and
/// reported instead of aborting the process.
void flush_scan_pushes(const DeviceConfig& dev, const LaunchConfig& cfg,
                       std::vector<BlockState::PendingPush>& pushes,
                       BlockWork& work, san::Sanitizer* san, std::uint32_t block) {
  if (pushes.empty()) return;

  const std::uint32_t scan_insts = 2 * ceil_log2(std::max(2u, cfg.block_threads));
  for (std::uint32_t wi = 0; wi < work.active; ++wi) {
    WarpTrace& wt = work.warps[wi];
    wt.push_op(OpKind::kCompute, Space::kGlobal,
               static_cast<std::uint16_t>(scan_insts), 32);
    wt.push_op(OpKind::kSharedAccess, Space::kGlobal, 1, 32);
    wt.push_op(OpKind::kSync, Space::kGlobal, 1, 32);
  }

  // Group by destination worklist in first-seen order. Nearly every kernel
  // pushes to exactly one worklist, so a tiny flat vector beats a std::map;
  // the scratch lives across blocks (commit is single-threaded).
  static thread_local std::vector<Worklist*> lists;

  lists.clear();
  for (const BlockState::PendingPush& push : pushes) {
    if (std::find(lists.begin(), lists.end(), push.worklist) == lists.end()) {
      lists.push_back(push.worklist);
    }
  }

  for (Worklist* wl : lists) {
    std::size_t count = 0;
    for (const BlockState::PendingPush& push : pushes) {
      if (push.worklist == wl) ++count;
    }

    // Functional: reserve the range and write the items.
    Buffer<std::uint32_t>& tail = wl->tail();
    Buffer<std::uint32_t>& items = wl->items();
    const std::uint32_t offset = tail[0];
    if (san != nullptr && offset + count > items.size()) {
      san->on_worklist_overflow(items.base_addr(), block, offset + count,
                                items.size());
      count = items.size() - std::min<std::size_t>(offset, items.size());
    }
    SPECKLE_CHECK(offset + count <= items.size(), "worklist overflow");
    tail[0] = offset + static_cast<std::uint32_t>(count);
    if (san != nullptr) {
      // These runtime stores happen here, on the serial commit path, not
      // through Thread — mark the written words defined explicitly.
      san->on_commit_write(tail.addr_of(0), sizeof(std::uint32_t));
      san->on_commit_write(items.addr_of(offset),
                           count * sizeof(std::uint32_t));
    }

    // Timing: one atomic on the tail, performed by warp 0's leader.
    const std::uint64_t tail_addr = tail.addr_of(0);
    work.warps[0].push_op(OpKind::kAtomic, Space::kGlobal, 1, 1, {&tail_addr, 1});

    // Per-warp coalesced stores of that warp's items. Pushes arrive in
    // thread order, so each warp's pushes form one contiguous ascending run
    // — the coalescer's O(1) append path.
    Coalescer co(dev.line_bytes);
    std::uint16_t run_lanes = 0;
    auto emit_warp_store = [&](std::uint32_t warp) {
      if (run_lanes == 0) return;
      work.warps[warp].push_op(OpKind::kStore, Space::kGlobal, 1, run_lanes,
                               co.lines());
      co.reset();
      run_lanes = 0;
    };

    std::uint32_t run_warp = 0;
    std::size_t idx = 0;
    for (const BlockState::PendingPush& push : pushes) {
      if (push.worklist != wl) continue;
      if (idx >= count) break;  // clamped overflow: drop the excess
      const std::uint32_t warp = push.thread_in_block / dev.warp_size;
      if (warp != run_warp) {
        emit_warp_store(run_warp);
        run_warp = warp;
      }
      items[offset + idx] = push.value;
      co.add(items.addr_of(offset + idx), sizeof(std::uint32_t));
      ++run_lanes;
      ++idx;
    }
    emit_warp_store(run_warp);
  }

  // Second barrier: the offset broadcast before the stores retire.
  for (std::uint32_t wi = 0; wi < work.active; ++wi) {
    work.warps[wi].push_op(OpKind::kSync, Space::kGlobal, 1, 32);
  }
  pushes.clear();
}

}  // namespace

void Device::ensure_executor() {
  if (!arenas_.empty()) return;
  std::uint32_t lanes = config_.host_threads;
  if (lanes == 0) lanes = std::max(1u, std::thread::hardware_concurrency());
  if (lanes > 1) pool_ = std::make_unique<support::ThreadPool>(lanes);
  arenas_.reserve(lanes);
  for (std::uint32_t i = 0; i < lanes; ++i) {
    arenas_.push_back(std::make_unique<ExecArena>());
  }
}

void Device::execute_block(const LaunchConfig& cfg, const std::vector<Kernel>& phases,
                           std::uint32_t block, std::uint32_t warps_per_block,
                           ExecArena& arena, bool speculative, BlockWork& work,
                           BlockResult* result) {
  const std::size_t lane_count =
      static_cast<std::size_t>(warps_per_block) * config_.warp_size;
  if (arena.lanes.size() < lane_count) arena.lanes.resize(lane_count);
  for (std::size_t i = 0; i < lane_count; ++i) arena.lanes[i].clear();
  BlockState& bstate = arena.bstate;
  bstate.shared_words.assign(std::max<std::size_t>(cfg.smem_bytes_per_block / 4, 1),
                             0);
  bstate.pushes.clear();
  bstate.deferred.clear();
  bstate.observations.clear();
  bstate.discard_adds.clear();
  arena.overlay.clear();
  bstate.overlay = speculative ? &arena.overlay : nullptr;
  if (san_ != nullptr) {
    arena.san_log.reset(block);
    bstate.san = &arena.san_log;
  } else {
    bstate.san = nullptr;
  }

  for (std::size_t phase = 0; phase < phases.size(); ++phase) {
    for (std::uint32_t w = 0; w < warps_per_block; ++w) {
      for (std::uint32_t l = 0; l < config_.warp_size; ++l) {
        const std::uint32_t tid = w * config_.warp_size + l;
        if (tid >= cfg.block_threads) break;
        Thread thread(block, tid, cfg.block_threads, cfg.grid_blocks,
                      config_.warp_size, arena.lanes[tid], bstate);
        phases[phase](thread);
      }
      // Warp retirement: racy stores become visible to later warps (of this
      // block — cross-block visibility waits for the commit).
      for (const BlockState::DeferredWrite& write : bstate.deferred) {
        if (bstate.overlay != nullptr) {
          bstate.overlay->put(write.addr, write.host, write.value,
                              sizeof(std::uint32_t));
        } else {
          *write.host = write.value;
        }
      }
      bstate.deferred.clear();
    }
    if (phase + 1 < phases.size()) {
      for (std::size_t i = 0; i < lane_count; ++i) arena.lanes[i].sync();
    }
  }

  // Merge into the pooled warp slots: grow-only, so reused slots keep their
  // SoA buffers (merge_warp clears before filling).
  if (work.warps.size() < warps_per_block) work.warps.resize(warps_per_block);
  work.active = warps_per_block;
  for (std::uint32_t w = 0; w < warps_per_block; ++w) {
    merge_warp({arena.lanes.data() +
                    static_cast<std::size_t>(w) * config_.warp_size,
                config_.warp_size},
               config_.line_bytes, work.warps[w]);
  }

  if (result != nullptr) {
    // Move (don't copy) the overlay's writes: they are staged exactly once
    // between execution and the block's ordered commit slot.
    arena.overlay.take(result->writes);
    result->observations.assign(bstate.observations.begin(),
                                bstate.observations.end());
    result->pushes.assign(bstate.pushes.begin(), bstate.pushes.end());
    result->discard_adds.assign(bstate.discard_adds.begin(),
                                bstate.discard_adds.end());
    // Swap (not copy) the access log out of the arena: the arena's next
    // reset() clears whatever lands back in it.
    if (san_ != nullptr) std::swap(result->san_log, arena.san_log);
  }
  bstate.overlay = nullptr;
  bstate.san = nullptr;
}

bool Device::commit_block(const LaunchConfig& cfg, const std::vector<Kernel>& phases,
                          std::uint32_t block, std::uint32_t warps_per_block,
                          BlockResult& result, BlockWork& work) {
  // Validate the speculation: every pre-value a value-returning atomic
  // observed must still be the committed value. Earlier blocks' plain
  // writes never invalidate (chunk-snapshot visibility is the model); only
  // an atomic RMW chain rooted in a stale value does.
  bool valid = true;
  for (const BlockState::AtomicObservation& obs : result.observations) {
    std::uint64_t committed = 0;
    std::memcpy(&committed, obs.host, obs.size);
    if (committed != obs.pre_raw) {
      valid = false;
      break;
    }
  }

  if (valid) {
    // Fold the access log before applying the writes: the definedness
    // checks must see the state this block's loads actually read (the
    // chunk-start snapshot plus earlier commits), not its own stores.
    if (san_ != nullptr) san_->commit_block(result.san_log);
    for (const WriteOverlay::Write& write : result.writes) {
      std::memcpy(write.host, &write.raw, write.size);
      overlay_bytes_ += write.size;
    }
    overlay_writes_ += result.writes.size();
    for (const BlockState::DiscardAdd& add : result.discard_adds) {
      *add.host += add.delta;
    }
    flush_scan_pushes(config_, cfg, result.pushes, work, san_.get(), block);
    return false;
  }

  // Stale atomic pre-value (e.g. an earlier block reserved the same
  // worklist slots): re-execute the block directly against the committed
  // state at its commit slot. The decision and the replay depend only on
  // committed state, so every host thread count takes the same path.
  // (The replay regenerates the access log, so the sanitizer folds the
  // accesses the block *really* performed, not the discarded speculation.)
  ExecArena& arena = *arenas_.front();
  execute_block(cfg, phases, block, warps_per_block, arena, /*speculative=*/false,
                work, nullptr);
  if (san_ != nullptr) san_->commit_block(arena.san_log);
  flush_scan_pushes(config_, cfg, arena.bstate.pushes, work, san_.get(), block);
  return true;
}

const KernelStats& Device::run_grid(const LaunchConfig& cfg, const std::string& name,
                                    const std::vector<Kernel>& phases,
                                    const check::KernelSpec* spec) {
  support::check_deadline();
  SPECKLE_CHECK(cfg.grid_blocks >= 1, "kernel launched with an empty grid");
  memory_.begin_kernel();
  ensure_executor();
  if (san_ != nullptr) san_->begin_launch(name, cfg.racy_visibility, spec);
  if (plan_ != nullptr) {
    plan_->add_launch(name, spec, cfg.racy_visibility, cfg.grid_blocks,
                      cfg.block_threads);
    // Host launches here are stream-ordered and synchronous: the next
    // launch only starts after this one drained, so each launch closes its
    // own inter-barrier region. Concurrency enters the plan through the
    // async-copy windows (plan_copy_write/plan_copy_fence) and through
    // hand-built victim plans.
    plan_->barrier();
  }

  const std::uint32_t occupancy = occupancy_blocks_per_sm(config_, cfg);
  if (prof_ != nullptr) {
    prof_->begin_launch(name, cfg, occupancy, report_.total_cycles);
  }
  const std::uint32_t blocks_per_wave = occupancy * config_.num_sms;
  const std::uint32_t warps_per_block = ceil_div(cfg.block_threads, config_.warp_size);

  KernelStats stats;
  stats.name = name;
  stats.grid_blocks = cfg.grid_blocks;
  stats.block_threads = cfg.block_threads;

  // Per-launch commit accounting: functional overlay writes land at the
  // commit slots below; the L2-side page counters accumulate inside
  // MemorySystem, so the launch's share is a before/after delta.
  overlay_writes_ = 0;
  overlay_bytes_ = 0;
  const WaveCommitStats commit_start = memory_.commit_stats();

  double t = 0.0;

  for (std::uint32_t wave_begin = 0; wave_begin < cfg.grid_blocks;
       wave_begin += blocks_per_wave) {
    const std::uint32_t wave_count =
        std::min(blocks_per_wave, cfg.grid_blocks - wave_begin);
    if (works_.size() < wave_count) works_.resize(wave_count);
    while (results_.size() < wave_count) {
      results_.push_back(std::make_unique<BlockResult>());
    }

    if (cfg.racy_visibility) {
      // Kernels built on st_racy speculation *want* inter-block racy
      // visibility: on hardware a racy store surfaces through L2 within
      // hundreds of cycles — negligible against a block's lifetime — so
      // the only threads guaranteed to miss each other's writes are the
      // lanes of one warp. Snapshot execution would make whole block
      // groups mutually blind and multiply the speculative schemes'
      // conflict rounds; these launches instead run their blocks serially
      // with immediate visibility, the calibrated semantics the paper's
      // shapes were validated against. (Identical at every --threads.)
      for (std::uint32_t bi = 0; bi < wave_count; ++bi) {
        execute_block(cfg, phases, wave_begin + bi, warps_per_block,
                      *arenas_.front(), /*speculative=*/false, works_[bi],
                      nullptr);
        if (san_ != nullptr) san_->commit_block(arenas_.front()->san_log);
        flush_scan_pushes(config_, cfg, arenas_.front()->bstate.pushes,
                          works_[bi], san_.get(), wave_begin + bi);
        if (prof_ != nullptr) prof_->fold_block(works_[bi], /*replayed=*/false);
      }
    } else {
      // Execute/commit in *chunks of one block per SM*: a chunk's blocks
      // run concurrently on the pool, each against the chunk-start state
      // plus its own write overlay, then the chunk commits in ascending
      // block order before the next chunk starts. The chunk size is a
      // hardware constant — never the host thread count — so results are
      // bit-identical for every --threads value.
      const std::uint32_t chunk_blocks = config_.num_sms;
      for (std::uint32_t chunk = 0; chunk < wave_count; chunk += chunk_blocks) {
        const std::uint32_t count = std::min(chunk_blocks, wave_count - chunk);
        auto execute_one = [&](std::size_t i, unsigned slot) {
          const auto bi = chunk + static_cast<std::uint32_t>(i);
          execute_block(cfg, phases, wave_begin + bi, warps_per_block,
                        *arenas_[slot], /*speculative=*/true, works_[bi],
                        results_[bi].get());
        };
        if (pool_ != nullptr) {
          pool_->parallel_for_deterministic(count, execute_one);
        } else {
          for (std::uint32_t i = 0; i < count; ++i) execute_one(i, 0);
        }
        // Commit: side effects land in ascending block order — the serial
        // schedule every thread count reproduces bit-exactly.
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint32_t bi = chunk + i;
          const bool replayed =
              commit_block(cfg, phases, wave_begin + bi, warps_per_block,
                           *results_[bi], works_[bi]);
          if (prof_ != nullptr) prof_->fold_block(works_[bi], replayed);
        }
      }
    }

    if (per_sm_.size() != config_.num_sms) per_sm_.resize(config_.num_sms);
    for (auto& sm_blocks : per_sm_) sm_blocks.clear();
    for (std::uint32_t bi = 0; bi < wave_count; ++bi) {
      per_sm_[bi % config_.num_sms].push_back(&works_[bi]);
    }
    if (prof_ != nullptr) {
      WaveProfile wave;
      t = engine_.run_wave(per_sm_, t, stats, pool_.get(), &wave);
      prof_->on_wave(wave);
    } else {
      t = engine_.run_wave(per_sm_, t, stats, pool_.get());
    }
  }

  if (san_ != nullptr) san_->end_launch();

  stats.cycles =
      static_cast<std::uint64_t>(t) + config_.us_to_cycles(config_.kernel_launch_us);
  if (prof_ != nullptr) {
    prof_->on_commit(memory_.commit_stats() - commit_start, overlay_writes_,
                     overlay_bytes_);
    prof_->end_launch(stats);
  }
  report_.total_cycles += stats.cycles;
  report_.kernels.push_back(std::move(stats));
  return report_.kernels.back();
}

void Device::copy_to_device(std::uint64_t bytes) {
  const double us =
      config_.pcie_latency_us + static_cast<double>(bytes) / (config_.pcie_gbps * 1e3);
  const std::uint64_t cycles = config_.us_to_cycles(us);
  if (prof_ != nullptr) {
    prof_->on_transfer(/*h2d=*/true, bytes, cycles, report_.total_cycles);
  }
  report_.h2d.bytes += bytes;
  report_.h2d.cycles += cycles;
  ++report_.h2d.count;
  report_.total_cycles += cycles;
}

void Device::copy_to_host(std::uint64_t bytes) {
  const double us =
      config_.pcie_latency_us + static_cast<double>(bytes) / (config_.pcie_gbps * 1e3);
  const std::uint64_t cycles = config_.us_to_cycles(us);
  if (prof_ != nullptr) {
    prof_->on_transfer(/*h2d=*/false, bytes, cycles, report_.total_cycles);
  }
  report_.d2h.bytes += bytes;
  report_.d2h.cycles += cycles;
  ++report_.d2h.count;
  report_.total_cycles += cycles;
}

void Device::copy_peer(std::uint64_t bytes) {
  const std::uint64_t cycles = d2d_transfer_cycles(config_, bytes);
  if (prof_ != nullptr) {
    prof_->on_transfer_d2d(bytes, cycles, report_.total_cycles);
  }
  report_.d2d.bytes += bytes;
  report_.d2d.cycles += cycles;
  ++report_.d2d.count;
  report_.total_cycles += cycles;
}

void Device::copy_peer_async(std::uint64_t bytes, std::uint64_t start_cycle,
                             std::uint64_t cycles) {
  if (prof_ != nullptr) {
    prof_->on_transfer_d2d(bytes, cycles, start_cycle);
  }
  report_.d2d.bytes += bytes;
  report_.d2d.cycles += cycles;
  ++report_.d2d.count;
  // No total_cycles advance: the copy engine runs beside the SMs. The
  // consumer calls sync_to(start_cycle + cycles).
}

void Device::sync_to(std::uint64_t cycle) {
  if (cycle > report_.total_cycles) report_.total_cycles = cycle;
}

void Device::charge_host_cycles(std::uint64_t cycles) { report_.total_cycles += cycles; }

void Device::reset_report() {
  report_ = DeviceReport{};
  if (prof_ != nullptr) prof_->reset();
}

}  // namespace speckle::simt
