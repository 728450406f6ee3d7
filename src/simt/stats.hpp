#pragma once
/// \file stats.hpp
/// Per-kernel and per-run statistics: the raw material of Fig 3 (stall
/// breakdown, achieved throughput/bandwidth) and of every speedup figure.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "simt/config.hpp"

namespace speckle::simt {

/// Why an SM issue slot went unused — the categories of Fig 3(b).
enum class Stall : std::uint8_t {
  kMemoryDependency = 0,  ///< waiting on an outstanding global load
  kExecutionDependency,   ///< waiting on an ALU result
  kSynchronization,       ///< parked at a block barrier
  kMemoryThrottle,        ///< MSHRs full / DRAM bandwidth saturated
  kAtomic,                ///< waiting on the atomic unit
  kIdle,                  ///< no resident work (tail of a wave)
  kCount
};

const char* stall_name(Stall s);

struct StallBreakdown {
  std::array<double, static_cast<std::size_t>(Stall::kCount)> cycles{};
  double busy = 0.0;   ///< cycles an issue slot was used
  double total = 0.0;  ///< SM-cycles observed (summed over SMs)

  void add(Stall reason, double c) { cycles[static_cast<std::size_t>(reason)] += c; }
  double get(Stall reason) const { return cycles[static_cast<std::size_t>(reason)]; }
  /// Fraction of issue opportunities lost to `reason` (0..1).
  double fraction(Stall reason) const;
  StallBreakdown& operator+=(const StallBreakdown& other);
  bool operator==(const StallBreakdown&) const = default;
};

struct KernelStats {
  std::string name;
  std::uint32_t grid_blocks = 0;
  std::uint32_t block_threads = 0;
  std::uint64_t cycles = 0;         ///< kernel duration incl. launch overhead
  std::uint64_t warp_insts = 0;     ///< SIMT instructions issued
  std::uint64_t gld_transactions = 0;
  std::uint64_t gst_transactions = 0;
  std::uint64_t ro_hits = 0;
  std::uint64_t ro_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;      ///< == DRAM read transactions
  std::uint64_t dram_bytes = 0;
  std::uint64_t atomics = 0;
  StallBreakdown stalls;

  /// Fold one SM's wave partial into this kernel's totals (counters and
  /// stall cycles; identity fields like name/grid are left alone). Called
  /// in SM order so floating-point sums are schedule-independent.
  void merge_wave_partial(const KernelStats& sm_partial) {
    warp_insts += sm_partial.warp_insts;
    gld_transactions += sm_partial.gld_transactions;
    gst_transactions += sm_partial.gst_transactions;
    ro_hits += sm_partial.ro_hits;
    ro_misses += sm_partial.ro_misses;
    l2_hits += sm_partial.l2_hits;
    l2_misses += sm_partial.l2_misses;
    dram_bytes += sm_partial.dram_bytes;
    atomics += sm_partial.atomics;
    stalls += sm_partial.stalls;
  }

  /// Achieved DRAM bandwidth as a fraction of peak (Fig 3a, "memory").
  double bandwidth_utilization(const DeviceConfig& dev) const;
};

/// One wave's timing profile: per-SM finish/busy/instruction/DRAM samples
/// plus the wave bounds, in the launch-local timeline (the launch's first
/// wave starts at 0). Filled by TimingEngine::run_wave on request — the
/// raw material of the profiler's SM timeline and issue-utilization
/// histogram (src/prof).
struct WaveProfile {
  struct Sm {
    double finish = 0.0;  ///< when this SM drained (pre bandwidth floor)
    double busy = 0.0;    ///< issue-slot-busy cycles on this SM
    std::uint64_t warp_insts = 0;
    std::uint64_t dram_transactions = 0;
    bool operator==(const Sm&) const = default;
  };
  double start = 0.0;
  double finish = 0.0;  ///< wave end incl. the DRAM bandwidth floor
  std::vector<Sm> sms;  ///< one entry per SM, SM order
  bool operator==(const WaveProfile&) const = default;
};

struct TransferStats {
  std::uint64_t bytes = 0;
  std::uint64_t cycles = 0;
  std::uint32_t count = 0;
};

/// Everything a simulated run produced: the kernel log plus transfer and
/// timeline accounting. `total_cycles` is the device timeline consumed by
/// kernels + transfers since the report was reset.
struct DeviceReport {
  std::vector<KernelStats> kernels;
  TransferStats h2d;
  TransferStats d2h;
  TransferStats d2d;  ///< peer exchanges (multi-device boundary traffic)
  std::uint64_t total_cycles = 0;

  /// Aggregate stall breakdown over all kernels (weighted by SM-cycles).
  StallBreakdown aggregate_stalls() const;
  double ms(const DeviceConfig& dev) const { return dev.cycles_to_ms(total_cycles); }
};

}  // namespace speckle::simt
