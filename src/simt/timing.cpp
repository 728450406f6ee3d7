#include "simt/timing.hpp"

#include <algorithm>
#include <array>

#include "support/check.hpp"
#include "support/threadpool.hpp"

namespace speckle::simt {

std::uint64_t d2d_transfer_cycles(const DeviceConfig& dev, std::uint64_t bytes) {
  const double us =
      dev.d2d_latency_us + static_cast<double>(bytes) / (dev.d2d_gbps * 1e3);
  return dev.us_to_cycles(us);
}

TimingEngine::SmOutcome TimingEngine::run_sm(std::uint32_t sm,
                                             const std::vector<const BlockWork*>& blocks,
                                             double start, KernelStats& stats,
                                             MemorySystem::WaveView& view) {
  SmOutcome outcome;
  outcome.finish = start;
  if (blocks.empty()) return outcome;

  // Hoist the device parameters the event loop reads per instruction so the
  // compiler can keep them in registers across the switch.
  const double issue_cost = 1.0 / dev_.issue_slots_per_cycle;
  const double compute_latency = dev_.compute_latency;
  const double shared_latency = dev_.shared_latency;
  const std::size_t mshrs_per_sm = dev_.mshrs_per_sm;
  const std::uint64_t dram_sector_bytes = dev_.dram_sector_bytes;

  SmScratch& scratch = scratch_[sm];
  std::vector<WarpRt>& warps = scratch.warps;
  std::vector<BarrierRt>& barriers = scratch.barriers;
  warps.clear();
  if (barriers.size() < blocks.size()) barriers.resize(blocks.size());
  for (std::uint32_t slot = 0; slot < blocks.size(); ++slot) {
    BarrierRt& barrier = barriers[slot];
    barrier.expected = 0;
    barrier.arrived = 0;
    barrier.max_arrival = 0.0;
    barrier.waiting.clear();
    std::uint64_t sync_count = 0;
    bool first = true;
    for (std::uint32_t wi = 0; wi < blocks[slot]->active; ++wi) {
      const WarpTrace& wt = blocks[slot]->warps[wi];
      const std::uint64_t syncs = wt.sync_count();
      if (syncs > 0) ++barrier.expected;
      if (first) {
        sync_count = syncs;
        first = false;
      } else {
        SPECKLE_CHECK(syncs == sync_count || syncs == 0,
                      "warps of a block must hit the same barriers");
      }
      if (!wt.empty()) warps.push_back({&wt, 0, Stall::kIdle, slot});
    }
  }
  if (warps.empty()) return outcome;

  // Outstanding DRAM-miss completions (MSHR occupancy) for this SM. The
  // queue is a local so its head and tail stay in registers; only its
  // storage is pooled.
  MshrQueue outstanding(scratch.mshr.data(), mshrs_per_sm);

  // Every warp is ready at `start`; the tree breaks the tie by index.
  WarpWinnerTree& ready = scratch.ready;
  ready.reset(static_cast<std::uint32_t>(warps.size()), start);

  double clock = start;
  double busy = 0.0;
  std::size_t remaining = warps.size();

  // Count into locals and fold into `stats` once on exit: the compiler
  // cannot prove the stats reference doesn't alias the view's internals, so
  // counting straight into the fields would re-load and re-store each one
  // per instruction. The fold is exact for the stall sums too — each
  // partial's field starts the wave at 0.0, and 0.0 + x == x bit-for-bit
  // for the non-negative cycle sums.
  std::uint64_t warp_insts = 0;
  std::uint64_t gld_transactions = 0, gst_transactions = 0;
  std::uint64_t ro_hits = 0, ro_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t dram_bytes = 0, atomics = 0;
  std::uint64_t dram_transactions = 0;
  std::array<double, static_cast<std::size_t>(Stall::kCount)> stall_cycles{};

  while (remaining > 0) {
    // Issue from the unparked, unfinished warp with the earliest ready time
    // (lowest index on ties).
    const double w_ready = ready.top_key();
    SPECKLE_CHECK(w_ready != WarpWinnerTree::kNever,
                  "all warps parked: barrier deadlock");
    const std::uint32_t pick = ready.top();
    WarpRt& w = warps[pick];
    if (w_ready > clock) {
      stall_cycles[static_cast<std::size_t>(w.reason)] += w_ready - clock;
      clock = w_ready;
    }
    outstanding.drain(clock);

    const WarpTrace& wt = *w.trace;
    const std::size_t cur = w.cursor;
    ++w.cursor;

    // One load of the packed meta word; each case decodes only the fields
    // it consumes (compute/sync never touch the address pool).
    const std::uint64_t m = wt.meta(cur);
    double next_ready = clock;  // the warp's key after this op; each case sets it
    switch (WarpTrace::meta_kind(m)) {
      case OpKind::kCompute: {
        const std::uint16_t inst_count = WarpTrace::meta_inst_count(m);
        const double issue_time = inst_count * issue_cost;
        busy += issue_time;
        clock += issue_time;
        warp_insts += inst_count;
        next_ready = clock + compute_latency;
        w.reason = Stall::kExecutionDependency;
        break;
      }
      case OpKind::kSharedAccess: {
        busy += issue_cost;
        clock += issue_cost;
        ++warp_insts;
        next_ready = clock + shared_latency;
        w.reason = Stall::kExecutionDependency;
        break;
      }
      case OpKind::kLoad: {
        busy += issue_cost;
        clock += issue_cost;
        ++warp_insts;
        const Space space = WarpTrace::meta_space(m);
        double max_done = clock;
        double transaction_issue = clock;
        for (std::uint64_t line : wt.addr_span_at(m, cur)) {
          // Each extra transaction of one warp instruction replays through
          // the LSU one cycle later.
          transaction_issue += 1.0;
          // MSHR throttling: a full miss queue delays further misses. The
          // delay extends this op's completion; the resulting scheduler gap
          // is attributed below via the warp's stall reason.
          outstanding.drain(transaction_issue);
          if (outstanding.size() >= mshrs_per_sm) {
            const double free_at = outstanding.min();
            outstanding.pop();
            if (free_at > transaction_issue) {
              transaction_issue = free_at;
            }
          }
          const MemorySystem::LoadResult r = view.load(space, line);
          ++gld_transactions;
          if (space == Space::kReadOnly) {
            r.ro_hit ? ++ro_hits : ++ro_misses;
          }
          if (r.l2_hit) ++l2_hits;
          if (r.dram) {
            ++l2_misses;
            ++dram_transactions;
            dram_bytes += dram_sector_bytes;
            outstanding.push(transaction_issue + r.latency);
          }
          max_done = std::max(max_done, transaction_issue + r.latency);
        }
        next_ready = max_done;
        // A warp waiting on its own load's data is a memory-dependency
        // stall in profiler terms, even when MSHR queueing lengthened the
        // wait — kMemoryThrottle is reserved for warps that cannot issue at
        // all (store-queue pressure, not modeled for loads).
        w.reason = Stall::kMemoryDependency;
        break;
      }
      case OpKind::kStore: {
        busy += issue_cost;
        clock += issue_cost;
        ++warp_insts;
        for (std::uint64_t line : wt.addr_span_at(m, cur)) {
          ++gst_transactions;
          if (view.store(line)) {
            ++dram_transactions;
            dram_bytes += dram_sector_bytes;
          }
        }
        // Stores are fire-and-forget: no dependency latency for the warp.
        next_ready = clock;
        w.reason = Stall::kExecutionDependency;
        break;
      }
      case OpKind::kAtomic: {
        busy += issue_cost;
        clock += issue_cost;
        ++warp_insts;
        double done = clock;
        for (std::uint64_t addr : wt.addr_span_at(m, cur)) {
          done = std::max(done, view.atomic(addr, clock));
          ++atomics;
        }
        next_ready = done;
        w.reason = Stall::kAtomic;
        break;
      }
      case OpKind::kSync: {
        busy += issue_cost;
        clock += issue_cost;
        ++warp_insts;
        BarrierRt& barrier = barriers[w.block_slot];
        ++barrier.arrived;
        barrier.max_arrival = std::max(barrier.max_arrival, clock);
        if (barrier.arrived == barrier.expected) {
          for (std::uint32_t idx : barrier.waiting) {
            // A warp whose sync was its last op already left `remaining`.
            if (!warps[idx].done()) ready.update(idx, barrier.max_arrival);
          }
          next_ready = barrier.max_arrival;
          w.reason = Stall::kSynchronization;
          barrier.arrived = 0;
          barrier.max_arrival = 0.0;
          barrier.waiting.clear();
        } else {
          w.reason = Stall::kSynchronization;
          next_ready = WarpWinnerTree::kNever;
          barrier.waiting.push_back(static_cast<std::uint32_t>(pick));
        }
        break;
      }
    }

    if (w.done()) {
      --remaining;
      next_ready = WarpWinnerTree::kNever;
    }
    ready.update(pick, next_ready);
  }

  stats.warp_insts += warp_insts;
  stats.gld_transactions += gld_transactions;
  stats.gst_transactions += gst_transactions;
  stats.ro_hits += ro_hits;
  stats.ro_misses += ro_misses;
  stats.l2_hits += l2_hits;
  stats.l2_misses += l2_misses;
  stats.dram_bytes += dram_bytes;
  stats.atomics += atomics;
  for (std::size_t r = 0; r < stall_cycles.size(); ++r) {
    stats.stalls.cycles[r] += stall_cycles[r];
  }
  stats.stalls.busy += busy;
  outcome.dram_transactions = dram_transactions;
  outcome.finish = clock;
  return outcome;
}

double TimingEngine::run_wave(const std::vector<std::vector<const BlockWork*>>& per_sm,
                              double start, KernelStats& stats,
                              support::ThreadPool* pool, WaveProfile* profile) {
  SPECKLE_CHECK(per_sm.size() == dev_.num_sms, "per_sm must have one entry per SM");
  const std::uint32_t num_sms = static_cast<std::uint32_t>(per_sm.size());

  // Per-SM wave views and stats partials: the event loops share nothing, so
  // they can run on the pool; merging in SM order below makes the totals
  // (including the floating-point stall sums) independent of the schedule.
  // Views, partials and scratch are pooled across waves — the view reset is
  // an epoch bump, and overlay pages re-snapshot lazily on first touch.
  if (views_.empty()) {
    SPECKLE_CHECK(dev_.mshrs_per_sm > 0, "an SM needs at least one MSHR");
    scratch_.resize(num_sms);
    for (SmScratch& scratch : scratch_) {
      scratch.mshr.resize(MshrQueue::storage_size(dev_.mshrs_per_sm));
    }
    partials_.resize(num_sms);
    outcomes_.resize(num_sms);
    views_.reserve(num_sms);
    for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
      views_.push_back(memory_.wave_view(sm));
    }
  } else {
    for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
      memory_.reset_view(views_[sm], sm);
    }
  }
  for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
    partials_[sm] = KernelStats{};
    outcomes_[sm] = SmOutcome{};
  }

  auto run_one = [&](std::size_t sm, unsigned) {
    outcomes_[sm] = run_sm(static_cast<std::uint32_t>(sm), per_sm[sm], start,
                           partials_[sm], views_[sm]);
  };
  if (pool != nullptr) {
    pool->parallel_for_deterministic(num_sms, run_one);
  } else {
    for (std::uint32_t sm = 0; sm < num_sms; ++sm) run_one(sm, 0);
  }

  double finish = start;
  std::uint64_t wave_dram = 0;
  for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
    stats.merge_wave_partial(partials_[sm]);
    finish = std::max(finish, outcomes_[sm].finish);
    wave_dram += outcomes_[sm].dram_transactions;
  }
  memory_.commit_wave(views_);

  // DRAM bandwidth floor: the wave can't finish faster than its DRAM
  // traffic (in 32-byte sectors) can be served. Queueing behind saturated
  // bandwidth lengthens every load's effective latency, which profilers
  // attribute to memory dependency — so the excess lands there.
  const double min_duration = static_cast<double>(wave_dram) *
                              dev_.dram_sector_bytes / dev_.dram_bytes_per_cycle();
  if (finish - start < min_duration) {
    const double excess = min_duration - (finish - start);
    stats.stalls.add(Stall::kMemoryDependency, excess * dev_.num_sms);
    finish = start + min_duration;
  }

  // Idle accounting: SMs that drained early, plus the scheduler-side view of
  // total issue opportunities.
  for (const SmOutcome& o : outcomes_) {
    const double sm_busy_until = std::max(o.finish, start);
    stats.stalls.add(Stall::kIdle, finish - sm_busy_until);
  }
  stats.stalls.total += (finish - start) * dev_.num_sms;

  if (profile != nullptr) {
    profile->start = start;
    profile->finish = finish;
    profile->sms.clear();
    profile->sms.reserve(num_sms);
    for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
      profile->sms.push_back({std::max(outcomes_[sm].finish, start),
                              partials_[sm].stalls.busy,
                              partials_[sm].warp_insts,
                              outcomes_[sm].dram_transactions});
    }
  }
  return finish;
}

}  // namespace speckle::simt
