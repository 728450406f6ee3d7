#pragma once
/// \file cpu_model.hpp
/// A scalar CPU cost model for the sequential baseline.
///
/// The paper normalizes every GPU result to the sequential greedy algorithm
/// running on a Xeon E5-2670. To make simulated-GPU cycles and CPU time
/// commensurable (and deterministic), the sequential algorithm is charged
/// against this model while it runs functionally: every load/store probes a
/// three-level cache hierarchy (the actual host addresses of the data
/// structures are used, so locality is the real locality), and ALU work is
/// charged at a sustained IPC. Out-of-order overlap is folded into the
/// per-level effective latencies.
///
/// Wall-clock timings of the real code are reported alongside in the
/// benches; the *figures* use model cycles on both sides.

#include <cstdint>

#include "simt/cache.hpp"

namespace speckle::cpumodel {

struct CpuConfig {
  double clock_ghz = 2.6;  ///< Xeon E5-2670
  std::uint32_t line_bytes = 64;
  std::uint64_t l1_bytes = 32 * 1024;
  std::uint32_t l1_ways = 8;
  std::uint64_t l2_bytes = 256 * 1024;
  std::uint32_t l2_ways = 8;
  std::uint64_t l3_bytes = 20 * 1024 * 1024;
  std::uint32_t l3_ways = 16;
  /// Effective (overlap-adjusted) access costs in CPU cycles.
  double l1_cost = 1.0;
  double l2_cost = 4.0;
  double l3_cost = 10.0;
  double dram_cost = 50.0;
  double ipc = 2.0;  ///< sustained scalar instructions per cycle

  static CpuConfig xeon_e5_2670() { return CpuConfig{}; }

  /// Capacity-scaled copy for reduced-scale experiments (see
  /// simt::DeviceConfig::scaled): cache sizes shrink by `denom`, rates stay.
  CpuConfig scaled(std::uint32_t denom) const;
};

class CpuModel {
 public:
  explicit CpuModel(CpuConfig config = CpuConfig::xeon_e5_2670());

  /// Charge a read/write of `bytes` at host address `p`.
  void touch_read(const void* p, std::size_t bytes = 4);
  void touch_write(const void* p, std::size_t bytes = 4);
  /// Charge `n` ALU instructions.
  void compute(std::uint32_t n = 1);

  double cycles() const { return cycles_; }
  double ms() const { return cycles_ / (config_.clock_ghz * 1e6); }

  std::uint64_t dram_accesses() const { return dram_accesses_; }

  const CpuConfig& config() const { return config_; }

 private:
  void touch(const void* p, std::size_t bytes);

  CpuConfig config_;
  simt::CacheModel l1_;
  simt::CacheModel l2_;
  simt::CacheModel l3_;
  double cycles_ = 0.0;
  std::uint64_t dram_accesses_ = 0;
};

}  // namespace speckle::cpumodel
