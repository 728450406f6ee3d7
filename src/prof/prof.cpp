#include "prof/prof.hpp"

#include <algorithm>
#include <sstream>

namespace speckle::prof {
namespace {

/// Sum b's counter fields into a (identity fields — kernel, round, grid —
/// are left alone). Used by the per-kernel and whole-run aggregations.
void add_counters(LaunchProfile& a, const LaunchProfile& b) {
  a.cycles += b.cycles;
  a.blocks += b.blocks;
  a.blocks_replayed += b.blocks_replayed;
  a.warps_launched += b.warps_launched;
  a.threads_launched += b.threads_launched;
  a.warp_insts += b.warp_insts;
  a.divergent_insts += b.divergent_insts;
  a.active_lane_issues += b.active_lane_issues;
  a.possible_lane_issues += b.possible_lane_issues;
  a.ld_requests += b.ld_requests;
  a.ld_transactions += b.ld_transactions;
  a.ldg_requests += b.ldg_requests;
  a.ldg_transactions += b.ldg_transactions;
  a.st_requests += b.st_requests;
  a.st_transactions += b.st_transactions;
  a.atomic_ops += b.atomic_ops;
  a.barriers += b.barriers;
  a.issued_insts += b.issued_insts;
  a.ro_hits += b.ro_hits;
  a.ro_misses += b.ro_misses;
  a.l2_hits += b.l2_hits;
  a.l2_misses += b.l2_misses;
  a.dram_bytes += b.dram_bytes;
  a.stalls += b.stalls;
  a.commit.waves += b.commit.waves;
  a.commit.pages_touched += b.commit.pages_touched;
  a.commit.pages_merged += b.commit.pages_merged;
  a.commit.bytes_swapped += b.commit.bytes_swapped;
  a.commit.bytes_replayed += b.commit.bytes_replayed;
  a.overlay_writes += b.overlay_writes;
  a.overlay_bytes += b.overlay_bytes;
  for (std::size_t i = 0; i < LaunchProfile::kIssueBins; ++i) {
    a.issue_hist[i] += b.issue_hist[i];
  }
  a.waves += b.waves;
  for (const BufferCounters& bc : b.buffers) {
    auto it = std::find_if(a.buffers.begin(), a.buffers.end(),
                           [&](const BufferCounters& ac) {
                             return ac.name == bc.name && ac.base == bc.base;
                           });
    if (it == a.buffers.end()) {
      a.buffers.push_back(bc);
    } else {
      it->ld_transactions += bc.ld_transactions;
      it->ldg_transactions += bc.ldg_transactions;
      it->st_transactions += bc.st_transactions;
      it->requests += bc.requests;
      it->atomics += bc.atomics;
    }
  }
}

}  // namespace

std::vector<KernelAggregate> Report::by_kernel() const {
  std::vector<KernelAggregate> out;
  for (const LaunchProfile& lp : launches) {
    auto it = std::find_if(out.begin(), out.end(), [&](const KernelAggregate& k) {
      return k.kernel == lp.kernel;
    });
    if (it == out.end()) {
      out.push_back({lp.kernel, 0, {}});
      it = out.end() - 1;
      it->sum.kernel = lp.kernel;
      it->sum.grid_blocks = lp.grid_blocks;
      it->sum.block_threads = lp.block_threads;
      it->sum.occupancy_blocks_per_sm = lp.occupancy_blocks_per_sm;
    }
    ++it->launches;
    add_counters(it->sum, lp);
  }
  return out;
}

void Profiler::on_alloc(std::uint64_t base, std::uint64_t bytes, std::string name) {
  // Inserting shifts registry indices, so retire the previous launch's slot
  // marks while the indices in `touched_` are still valid. (Allocation is a
  // host-side act — no launch is open here.)
  for (std::size_t idx : touched_) buffers_[idx].slot = SIZE_MAX;
  touched_.clear();
  if (name.empty()) {
    std::ostringstream label;
    label << "buf@0x" << std::hex << base;
    name = label.str();
  }
  const auto it = std::lower_bound(
      buffers_.begin(), buffers_.end(), base,
      [](const BufferInfo& info, std::uint64_t b) { return info.base < b; });
  buffers_.insert(it, {base, bytes, std::move(name), SIZE_MAX});
  last_hit_ = SIZE_MAX;  // indices shifted
}

void Profiler::begin_launch(const std::string& kernel,
                            const simt::LaunchConfig& cfg,
                            std::uint32_t occupancy_blocks_per_sm,
                            std::uint64_t start_cycle) {
  for (std::size_t idx : touched_) buffers_[idx].slot = SIZE_MAX;
  touched_.clear();

  LaunchProfile lp;
  lp.kernel = kernel;
  lp.round = rounds_[kernel]++;
  lp.grid_blocks = cfg.grid_blocks;
  lp.block_threads = cfg.block_threads;
  lp.occupancy_blocks_per_sm = occupancy_blocks_per_sm;
  lp.start_cycle = start_cycle;
  report_.launches.push_back(std::move(lp));
  current_ = &report_.launches.back();
}

std::size_t Profiler::find_buffer(std::uint64_t addr) {
  if (last_hit_ != SIZE_MAX) {
    const BufferInfo& hit = buffers_[last_hit_];
    if (addr >= hit.base && addr < hit.base + hit.bytes) return last_hit_;
  }
  // First buffer with base > addr; the candidate is the one before it.
  const auto it = std::upper_bound(
      buffers_.begin(), buffers_.end(), addr,
      [](std::uint64_t a, const BufferInfo& info) { return a < info.base; });
  if (it == buffers_.begin()) return SIZE_MAX;
  const std::size_t idx = static_cast<std::size_t>(it - buffers_.begin()) - 1;
  const BufferInfo& info = buffers_[idx];
  if (addr < info.base + info.bytes) {
    last_hit_ = idx;
    return idx;
  }
  return SIZE_MAX;
}

BufferCounters& Profiler::launch_counters(std::size_t idx) {
  BufferInfo& info = buffers_[idx];
  if (info.slot == SIZE_MAX) {
    info.slot = current_->buffers.size();
    BufferCounters bc;
    bc.name = info.name;
    bc.base = info.base;
    current_->buffers.push_back(std::move(bc));
    touched_.push_back(idx);
  }
  return current_->buffers[info.slot];
}

void Profiler::fold_block(const simt::BlockWork& work, bool replayed) {
  if (current_ == nullptr) return;
  LaunchProfile& lp = *current_;
  ++lp.blocks;
  if (replayed) ++lp.blocks_replayed;
  lp.warps_launched += work.active;
  lp.threads_launched += lp.block_threads;

  const std::uint32_t warp_size = dev_.warp_size;
  for (std::uint32_t wi = 0; wi < work.active; ++wi) {
    const simt::WarpTrace& wt = work.warps[wi];
    // Lanes resident in this warp (the last warp of a non-multiple block is
    // partially populated). Ops appended on the commit path (scan-push
    // compaction) claim 32 active lanes regardless, so active is clamped.
    const std::uint32_t warp_lanes =
        std::min(warp_size, lp.block_threads - wi * warp_size);
    for (std::size_t i = 0; i < wt.size(); ++i) {
      const simt::WarpOpView op = wt.op(i);
      const std::uint64_t insts =
          op.kind == simt::OpKind::kCompute ? op.inst_count : 1;
      const std::uint32_t active =
          std::min<std::uint32_t>(op.active_lanes, warp_lanes);
      lp.warp_insts += insts;
      lp.active_lane_issues += static_cast<std::uint64_t>(active) * insts;
      lp.possible_lane_issues += static_cast<std::uint64_t>(warp_lanes) * insts;
      if (active < warp_lanes) lp.divergent_insts += insts;

      switch (op.kind) {
        case simt::OpKind::kLoad: {
          const bool ro = op.space == simt::Space::kReadOnly;
          (ro ? lp.ldg_requests : lp.ld_requests) += 1;
          (ro ? lp.ldg_transactions : lp.ld_transactions) += op.addrs.size();
          bool first = true;
          for (std::uint64_t line : op.addrs) {
            const std::size_t idx = find_buffer(line);
            if (idx == SIZE_MAX) continue;
            BufferCounters& bc = launch_counters(idx);
            (ro ? bc.ldg_transactions : bc.ld_transactions) += 1;
            if (first) {
              ++bc.requests;
              first = false;
            }
          }
          break;
        }
        case simt::OpKind::kStore: {
          ++lp.st_requests;
          lp.st_transactions += op.addrs.size();
          bool first = true;
          for (std::uint64_t line : op.addrs) {
            const std::size_t idx = find_buffer(line);
            if (idx == SIZE_MAX) continue;
            BufferCounters& bc = launch_counters(idx);
            ++bc.st_transactions;
            if (first) {
              ++bc.requests;
              first = false;
            }
          }
          break;
        }
        case simt::OpKind::kAtomic: {
          lp.atomic_ops += op.addrs.size();
          for (std::uint64_t addr : op.addrs) {
            const std::size_t idx = find_buffer(addr);
            if (idx == SIZE_MAX) continue;
            ++launch_counters(idx).atomics;
          }
          break;
        }
        case simt::OpKind::kSync:
          ++lp.barriers;
          break;
        case simt::OpKind::kCompute:
        case simt::OpKind::kSharedAccess:
          break;
      }
    }
  }
}

void Profiler::on_wave(const simt::WaveProfile& wave) {
  if (current_ == nullptr) return;
  LaunchProfile& lp = *current_;
  ++lp.waves;
  lp.timeline.push_back({wave.start, wave.finish, wave.sms});
  const double duration = wave.finish - wave.start;
  for (const simt::WaveProfile::Sm& sm : wave.sms) {
    double util = duration > 0.0 ? sm.busy / duration : 0.0;
    util = std::clamp(util, 0.0, 1.0);
    std::size_t bin = static_cast<std::size_t>(util * LaunchProfile::kIssueBins);
    bin = std::min(bin, LaunchProfile::kIssueBins - 1);
    ++lp.issue_hist[bin];
  }
}

void Profiler::on_commit(const simt::WaveCommitStats& delta,
                         std::uint64_t overlay_writes, std::uint64_t overlay_bytes) {
  if (current_ == nullptr) return;
  current_->commit = delta;
  current_->overlay_writes = overlay_writes;
  current_->overlay_bytes = overlay_bytes;
}

void Profiler::end_launch(const simt::KernelStats& stats) {
  if (current_ == nullptr) return;
  LaunchProfile& lp = *current_;
  lp.cycles = stats.cycles;
  lp.issued_insts = stats.warp_insts;
  lp.ro_hits = stats.ro_hits;
  lp.ro_misses = stats.ro_misses;
  lp.l2_hits = stats.l2_hits;
  lp.l2_misses = stats.l2_misses;
  lp.dram_bytes = stats.dram_bytes;
  lp.stalls = stats.stalls;
  current_ = nullptr;
}

void Profiler::on_transfer(bool h2d, std::uint64_t bytes, std::uint64_t cycles,
                           std::uint64_t start_cycle) {
  report_.transfers.push_back({h2d, /*d2d=*/false, bytes, cycles, start_cycle});
}

void Profiler::on_transfer_d2d(std::uint64_t bytes, std::uint64_t cycles,
                               std::uint64_t start_cycle) {
  report_.transfers.push_back({/*h2d=*/false, /*d2d=*/true, bytes, cycles,
                               start_cycle});
}

void Profiler::reset() {
  report_ = Report{};
  current_ = nullptr;
  rounds_.clear();
  for (std::size_t idx : touched_) buffers_[idx].slot = SIZE_MAX;
  touched_.clear();
}

}  // namespace speckle::prof
