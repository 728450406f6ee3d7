#pragma once
/// \file prof.hpp
/// speckle::prof — a deterministic, opt-in profiling subsystem for the SIMT
/// simulator (the simulator's analogue of `nvprof --metrics`, but with
/// bit-identical reports at every host thread count).
///
/// The paper's performance claims are *mechanistic*: `__ldg` wins because
/// reads hit the ~30-cycle read-only cache instead of the ~300-cycle
/// L2/DRAM path, and the data-driven schemes win because the block-wide
/// scan push touches the worklist tail with ONE atomic per thread block.
/// The profiler turns those claims into counters: per kernel launch it
/// collects hardware-counter-style metrics (warps launched, SIMT
/// instructions, divergent issues, read-only-cache/L2 hit rates, DRAM
/// transactions and bytes, coalescing efficiency, atomics broken down by
/// target buffer using the named `Device::alloc` registry, barrier counts
/// and stall cycles, SM issue-utilization histograms) plus an SM/wave
/// timeline for Chrome-trace/Perfetto export.
///
/// Determinism follows the speckle::san pattern: everything execution-side
/// is derived from each block's merged warp traces, folded into the
/// profiler *serially at the block's commit slot in ascending block order*;
/// everything timing-side is merged from the per-SM wave partials *in SM
/// order*. Both fold orders are schedule-independent, so every report —
/// text, JSON, and trace export — is byte-identical at any `--threads=N`.
///
/// Enable with DeviceConfig::profile (CLI: `speckle_color
/// --profile[=json|trace|both]`). Off by default; when off the only cost is
/// one null-pointer test per launch/commit/transfer — the per-access hot
/// paths are untouched.

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "simt/config.hpp"
#include "simt/stats.hpp"
#include "simt/timing.hpp"
#include "simt/trace.hpp"

namespace speckle::prof {

/// Per-buffer traffic of one kernel launch, attributed by resolving each
/// transaction's line address (and each atomic's word address) against the
/// named allocation registry. `requests` counts warp-level memory
/// instructions (attributed to the buffer of their first transaction);
/// dividing transactions by requests gives the buffer's coalescing cost.
struct BufferCounters {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t ld_transactions = 0;   ///< global-space load transactions
  std::uint64_t ldg_transactions = 0;  ///< read-only-space load transactions
  std::uint64_t st_transactions = 0;
  std::uint64_t requests = 0;          ///< memory warp-instructions
  std::uint64_t atomics = 0;           ///< per-lane atomic operations

  std::uint64_t transactions() const {
    return ld_transactions + ldg_transactions + st_transactions;
  }
  bool operator==(const BufferCounters&) const = default;
};

/// One wave's timeline sample: wave bounds plus per-SM finish/busy, used by
/// the issue-cycle histogram and the Chrome-trace export. Cycles are
/// engine-local (the launch's waves start at 0); the launch's
/// `start_cycle` places them on the device timeline.
struct WaveSlice {
  double start = 0.0;
  double finish = 0.0;
  std::vector<simt::WaveProfile::Sm> sms;
  bool operator==(const WaveSlice&) const = default;
};

/// Everything one kernel launch produced. Execution-side counters are
/// folded per block at the commit slots; timing-side counters are copied
/// from the launch's KernelStats after the waves ran.
struct LaunchProfile {
  std::string kernel;
  std::uint32_t round = 0;  ///< nth launch of this kernel name (0-based)
  std::uint32_t grid_blocks = 0;
  std::uint32_t block_threads = 0;
  std::uint32_t occupancy_blocks_per_sm = 0;
  std::uint32_t waves = 0;
  std::uint64_t start_cycle = 0;  ///< device timeline when the launch began
  std::uint64_t cycles = 0;       ///< duration incl. launch overhead

  // --- execution side (per-block fold, ascending block order) -------------
  std::uint64_t blocks = 0;
  std::uint64_t blocks_replayed = 0;  ///< speculation failed, re-executed
  std::uint64_t warps_launched = 0;
  std::uint64_t threads_launched = 0;
  std::uint64_t warp_insts = 0;       ///< merged SIMT instructions
  /// Warp instructions issued with fewer active lanes than the warp's
  /// resident threads — branch divergence, early-exit guards and degree
  /// imbalance all land here (this is SIMD underutilization as the merge
  /// layer materializes it; see docs/simulator.md §11).
  std::uint64_t divergent_insts = 0;
  std::uint64_t active_lane_issues = 0;    ///< sum of active lanes over ops
  std::uint64_t possible_lane_issues = 0;  ///< sum of resident lanes over ops
  std::uint64_t ld_requests = 0;           ///< global-space load warp ops
  std::uint64_t ld_transactions = 0;
  std::uint64_t ldg_requests = 0;          ///< RO-space load warp ops
  std::uint64_t ldg_transactions = 0;
  std::uint64_t st_requests = 0;
  std::uint64_t st_transactions = 0;
  std::uint64_t atomic_ops = 0;   ///< per-lane atomics (== timing's count)
  std::uint64_t barriers = 0;     ///< block-barrier warp instructions
  std::vector<BufferCounters> buffers;  ///< first-touch order

  // --- commit side (single-touch wave commit, see docs/simulator.md §10) --
  /// L2 overlay-page counters for this launch's waves: pages adopted by a
  /// single-owner swap vs rebuilt by the SM-ordered merge. Regressions in
  /// the commit path show up here before they show up in wall clock.
  simt::WaveCommitStats commit;
  std::uint64_t overlay_writes = 0;  ///< speculative writes committed (once each)
  std::uint64_t overlay_bytes = 0;   ///< bytes those writes landed

  // --- timing side (per-SM partials, SM order) ----------------------------
  std::uint64_t issued_insts = 0;  ///< warp insts the scheduler issued
  std::uint64_t ro_hits = 0;
  std::uint64_t ro_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;  ///< == DRAM read transactions
  std::uint64_t dram_bytes = 0;
  simt::StallBreakdown stalls;
  /// Histogram of per-SM, per-wave issue utilization (busy cycles / wave
  /// cycles) in 10% bins — the "how evenly busy were the SMs" view.
  static constexpr std::size_t kIssueBins = 10;
  std::array<std::uint64_t, kIssueBins> issue_hist{};
  std::vector<WaveSlice> timeline;  ///< one entry per wave

  // --- derived -------------------------------------------------------------
  double simd_efficiency() const {
    return possible_lane_issues > 0
               ? static_cast<double>(active_lane_issues) / possible_lane_issues
               : 0.0;
  }
  double ro_hit_rate() const {
    const std::uint64_t total = ro_hits + ro_misses;
    return total > 0 ? static_cast<double>(ro_hits) / total : 0.0;
  }
  double l2_hit_rate() const {
    const std::uint64_t total = l2_hits + l2_misses;
    return total > 0 ? static_cast<double>(l2_hits) / total : 0.0;
  }
  /// Coalescing efficiency: transactions per load request (1.0 = perfectly
  /// coalesced, 32 = fully scattered 4-byte accesses).
  double load_transactions_per_request() const {
    const std::uint64_t req = ld_requests + ldg_requests;
    return req > 0 ? static_cast<double>(ld_transactions + ldg_transactions) / req
                   : 0.0;
  }
  /// DRAM read transactions (the paper's "memory transactions" axis).
  std::uint64_t dram_transactions() const { return l2_misses; }

  bool operator==(const LaunchProfile&) const = default;
};

/// One modeled transfer (PCIe h2d/d2h, or a peer d2d exchange), for the
/// trace export.
struct Transfer {
  bool h2d = false;
  bool d2d = false;  ///< peer exchange; when set, h2d is meaningless
  std::uint64_t bytes = 0;
  std::uint64_t cycles = 0;
  std::uint64_t start_cycle = 0;
  const char* dir_name() const { return d2d ? "d2d" : (h2d ? "h2d" : "d2h"); }
  bool operator==(const Transfer&) const = default;
};

/// Per-kernel aggregate over all launches (rounds) of one kernel name.
struct KernelAggregate {
  std::string kernel;
  std::uint32_t launches = 0;
  LaunchProfile sum;  ///< counter fields summed; identity fields unset
};

/// One lockstep round's coalesced boundary-exchange summary, filled by the
/// multi-device runner into its fleet-level report. Counting is
/// per-endpoint (each link charges source and destination alike), matching
/// the d2d TransferStats totals. `hidden_cycles` is the link-busy time the
/// interior-compute overlap kept off the critical path; `stall_cycles` is
/// what the devices actually waited — together they make the overlap win
/// directly observable per round.
struct ExchangeRound {
  std::uint32_t round = 0;         ///< 1-based lockstep round
  std::uint32_t batches = 0;       ///< coalesced per-link payloads (×2 endpoints)
  std::uint64_t bytes = 0;         ///< payload bytes, per endpoint
  std::uint64_t cycles = 0;        ///< link-busy cycles, per endpoint
  std::uint64_t hidden_cycles = 0; ///< busy cycles hidden behind compute
  std::uint64_t stall_cycles = 0;  ///< cycles devices waited on exchanges
  bool operator==(const ExchangeRound&) const = default;
};

struct Report {
  std::vector<LaunchProfile> launches;  ///< launch order
  std::vector<Transfer> transfers;
  /// Per-round exchange batches (multi-device fleet reports only; empty on
  /// single-device runs).
  std::vector<ExchangeRound> exchange_rounds;

  bool empty() const { return launches.empty() && transfers.empty(); }

  /// Aggregate launches by kernel name, first-seen order.
  std::vector<KernelAggregate> by_kernel() const;

  /// Deterministic multi-line text rendering (the `--profile` console
  /// report). Contains only simulated quantities — golden-diffable.
  std::string format(const simt::DeviceConfig& dev) const;
  /// Machine-readable JSON record (top-level benchmark/machine/notes, as
  /// bench_multidev --json writes, plus the profile payload under
  /// "profile"). Byte-identical at every host thread count.
  std::string to_json(const simt::DeviceConfig& dev,
                      const std::string& benchmark = "",
                      const std::string& machine = "") const;
  /// Chrome-trace ("traceEvents") JSON of the kernel/SM/wave/PCIe timeline;
  /// loads in Perfetto and chrome://tracing.
  std::string to_chrome_trace(const simt::DeviceConfig& dev) const;

  bool operator==(const Report&) const = default;
};

/// The device-wide profiler. All methods run on the host's serial paths
/// (alloc, launch boundaries, the commit loop, wave ends), so it needs no
/// synchronization — determinism comes from the callers' fixed fold order.
class Profiler {
 public:
  explicit Profiler(const simt::DeviceConfig& dev) : dev_(dev) {}

  /// Register a named device allocation (same registry the sanitizer keeps;
  /// unnamed buffers get a synthesized "buf@0x<base>" label).
  void on_alloc(std::uint64_t base, std::uint64_t bytes, std::string name);

  /// Launch boundaries. `start_cycle` is the device timeline before the
  /// launch was charged.
  void begin_launch(const std::string& kernel, const simt::LaunchConfig& cfg,
                    std::uint32_t occupancy_blocks_per_sm,
                    std::uint64_t start_cycle);

  /// Fold one committed block's merged warp traces — called at the block's
  /// commit slot, in ascending block order, after any cooperative-push
  /// compaction appended its ops. `replayed` marks blocks whose speculation
  /// was discarded and re-executed.
  void fold_block(const simt::BlockWork& work, bool replayed);

  /// Record one wave's timing profile (per-SM finish/busy/insts), in wave
  /// order.
  void on_wave(const simt::WaveProfile& wave);

  /// Record the launch's wave-commit share: the MemorySystem counter delta
  /// across the launch plus the functional overlay writes its commit slots
  /// landed. Called once, on the serial path, just before end_launch.
  void on_commit(const simt::WaveCommitStats& delta, std::uint64_t overlay_writes,
                 std::uint64_t overlay_bytes);

  /// Close the launch with its final timing stats.
  void end_launch(const simt::KernelStats& stats);

  void on_transfer(bool h2d, std::uint64_t bytes, std::uint64_t cycles,
                   std::uint64_t start_cycle);
  /// Record a peer (device-to-device) exchange on this device's timeline.
  void on_transfer_d2d(std::uint64_t bytes, std::uint64_t cycles,
                       std::uint64_t start_cycle);

  /// Drop everything recorded so far (Device::reset_report after warm-up);
  /// the allocation registry survives.
  void reset();

  const Report& report() const { return report_; }

 private:
  struct BufferInfo {
    std::uint64_t base = 0;
    std::uint64_t bytes = 0;
    std::string name;
    std::size_t slot = SIZE_MAX;  ///< index into current launch's buffers
  };

  /// Registry index of the buffer containing `addr`, or SIZE_MAX.
  std::size_t find_buffer(std::uint64_t addr);
  /// The current launch's counter row for registry entry `idx` (creating it
  /// in first-touch order).
  BufferCounters& launch_counters(std::size_t idx);

  simt::DeviceConfig dev_;
  std::vector<BufferInfo> buffers_;  ///< sorted by base
  std::size_t last_hit_ = SIZE_MAX;  ///< registry lookup cache
  Report report_;
  LaunchProfile* current_ = nullptr;  ///< open launch (in report_.launches)
  std::vector<std::size_t> touched_;  ///< registry slots used this launch
  std::unordered_map<std::string, std::uint32_t> rounds_;  ///< launches/kernel
};

}  // namespace speckle::prof
