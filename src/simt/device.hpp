#pragma once
/// \file device.hpp
/// The simulated GPU: memory allocation, kernel launch, transfer modeling
/// and the accumulated run report.
///
/// Typical use (mirrors a CUDA host program):
///
///   simt::Device dev(simt::DeviceConfig::k20c());
///   auto row = dev.alloc<eid_t>(n + 1, "row");  // name shows up in san/prof reports
///   row.copy_from(graph.row_offsets());
///   dev.copy_to_device(row.byte_size());            // charge H2D (optional)
///   dev.launch({.grid_blocks = nblocks, .block_threads = 128}, "color",
///              [&](simt::Thread& t) { ... });
///   double ms = dev.report().ms(dev.config());
///
/// Execution is functional (buffers live in host memory) plus a
/// cycle-approximate timing model (see timing.hpp). Everything is
/// deterministic.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "prof/prof.hpp"
#include "simt/buffer.hpp"
#include "simt/check.hpp"
#include "simt/config.hpp"
#include "simt/memory.hpp"
#include "simt/san.hpp"
#include "simt/stats.hpp"
#include "simt/thread.hpp"
#include "simt/timing.hpp"

namespace speckle::support {
class ThreadPool;
}

namespace speckle::simt {

using Kernel = std::function<void(Thread&)>;

class Device {
 public:
  explicit Device(DeviceConfig config = DeviceConfig::k20c());
  ~Device();

  const DeviceConfig& config() const { return config_; }

  /// Allocate a typed device buffer (256-byte aligned address range).
  /// `name` labels the buffer in sanitizer findings; unnamed buffers get a
  /// synthesized "buf@0x<base>" label.
  template <typename T>
  Buffer<T> alloc(std::size_t count, std::string name = {}) {
    const std::uint64_t bytes = count * sizeof(T);
    const std::uint64_t base = allocate_range(bytes);
    if (prof_ != nullptr) prof_->on_alloc(base, bytes, name);
    if (plan_ != nullptr) plan_->on_alloc(base, bytes, name);
    if (san_ != nullptr) san_->on_alloc(base, bytes, std::move(name));
    return Buffer<T>(base, count, san_.get());
  }

  /// Launch a barrier-free kernel over grid_blocks x block_threads threads.
  /// The returned reference lives in the report's kernel vector and is
  /// invalidated by the next launch — copy it if it must outlive one.
  /// Throws support::DeadlineExceeded, before any block runs, past a deadline.
  const KernelStats& launch(const LaunchConfig& cfg, const std::string& name,
                            const Kernel& body);

  /// Launch a kernel expressed as phases with an implicit block-wide barrier
  /// between consecutive phases (__syncthreads at each phase boundary).
  const KernelStats& launch_phased(const LaunchConfig& cfg, const std::string& name,
                                   const std::vector<Kernel>& phases);

  /// Spec-carrying launches (speckle::check): `spec` declares every buffer
  /// the kernel touches with an intent and optional range. With
  /// DeviceConfig::check the spec is recorded into the LaunchPlan; with
  /// DeviceConfig::sanitize the sanitizer flags any dynamic access outside
  /// it (kUndeclaredAccess). The spec-less overloads above stay valid but
  /// are flagged kMissingSpec by the checker.
  const KernelStats& launch(const LaunchConfig& cfg, const std::string& name,
                            const check::KernelSpec& spec, const Kernel& body);
  const KernelStats& launch_phased(const LaunchConfig& cfg,
                                   const std::string& name,
                                   const check::KernelSpec& spec,
                                   const std::vector<Kernel>& phases);

  /// Charge a host-to-device / device-to-host transfer of `bytes` to the
  /// device timeline (PCIe latency + bandwidth model). Data movement itself
  /// is a no-op — buffers are host-resident.
  void copy_to_device(std::uint64_t bytes);
  void copy_to_host(std::uint64_t bytes);

  /// Charge a peer (device-to-device) transfer of `bytes` to this device's
  /// timeline (interconnect latency + bandwidth model; see
  /// d2d_transfer_cycles in timing.hpp). The multi-device runner charges
  /// both endpoints of a boundary exchange — the link occupies source and
  /// destination alike. Data movement itself is host-side, as with the
  /// PCIe transfers above.
  void copy_peer(std::uint64_t bytes);

  /// Record an ASYNCHRONOUS peer transfer occupying [start_cycle,
  /// start_cycle + cycles) on this device's DMA engine: d2d stats and the
  /// profiler see the transfer, but the compute timeline does NOT advance —
  /// kernels launched after this call model work overlapping the in-flight
  /// copy. The caller schedules the window (the multi-device runner
  /// serializes transfers per DMA engine and charges both endpoints) and
  /// pairs the call with sync_to() at the point that consumes the data.
  void copy_peer_async(std::uint64_t bytes, std::uint64_t start_cycle,
                       std::uint64_t cycles);

  /// Wait for an asynchronous operation: advance the timeline to `cycle`
  /// when it is still in the future (no-op otherwise). The gap, if any, is
  /// the exchange stall the overlap failed to hide.
  void sync_to(std::uint64_t cycle);

  /// Advance the timeline by host-side work of `cycles` *device* cycles
  /// (used when a hybrid scheme does real work on the CPU, e.g. the 3-step
  /// GM conflict resolution; callers convert from CPU-model cycles).
  void charge_host_cycles(std::uint64_t cycles);

  const DeviceReport& report() const { return report_; }
  /// Clear the report and rewind the timeline (e.g. after warm-up).
  void reset_report();

  std::uint64_t timeline_cycles() const { return report_.total_cycles; }
  double elapsed_ms() const { return config_.cycles_to_ms(report_.total_cycles); }

  MemorySystem& memory() { return memory_; }

  /// Non-null iff DeviceConfig::sanitize was set.
  san::Sanitizer* sanitizer() { return san_.get(); }
  bool sanitizing() const { return san_ != nullptr; }
  /// The accumulated sanitizer findings (empty report when sanitizing is
  /// off). Findings accumulate across launches until the device dies.
  san::Report san_report() const {
    return san_ != nullptr ? san_->report() : san::Report{};
  }

  /// Non-null iff DeviceConfig::profile was set.
  prof::Profiler* profiler() { return prof_.get(); }
  bool profiling() const { return prof_ != nullptr; }
  /// The accumulated profile (empty report when profiling is off). Launches
  /// accumulate until reset_report(), which also clears the profile.
  prof::Report prof_report() const {
    return prof_ != nullptr ? prof_->report() : prof::Report{};
  }

  /// Non-null iff DeviceConfig::check was set.
  check::LaunchPlan* plan() { return plan_.get(); }
  bool checking() const { return plan_ != nullptr; }
  /// Run the static checker over the accumulated launch plan (empty report
  /// when checking is off). Pure — safe to call any number of times.
  check::Report check_report() const {
    return plan_ != nullptr ? check::check_plan(*plan_) : check::Report{};
  }

  /// Record an asynchronous inbound write of bytes [lo, hi) into the buffer
  /// at `base` (multidev ghost exchange) into the launch plan: launches
  /// recorded before the next plan_copy_fence() are concurrent with the
  /// flight and must not touch the window. No-ops when checking is off.
  void plan_copy_write(std::uint64_t base, std::uint64_t lo, std::uint64_t hi,
                       const std::string& tag) {
    if (plan_ != nullptr) plan_->copy_write(base, lo, hi, tag);
  }
  /// The consume point: retire every in-flight planned copy.
  void plan_copy_fence() {
    if (plan_ != nullptr) plan_->fence();
  }

 private:
  friend class Thread;

  /// Per-lane scratch reused across blocks and launches: trace arrays, the
  /// block state, and the speculative write overlay (defined in device.cpp).
  struct ExecArena;
  /// One block's speculated side effects, kept until its commit slot.
  struct BlockResult;

  std::uint64_t allocate_range(std::uint64_t bytes);
  const KernelStats& run_grid(const LaunchConfig& cfg, const std::string& name,
                              const std::vector<Kernel>& phases,
                              const check::KernelSpec* spec);
  void ensure_executor();
  void execute_block(const LaunchConfig& cfg, const std::vector<Kernel>& phases,
                     std::uint32_t block, std::uint32_t warps_per_block,
                     ExecArena& arena, bool speculative, BlockWork& work,
                     BlockResult* result);
  /// Returns true when the speculation was discarded and the block
  /// re-executed serially (the profiler counts replays).
  bool commit_block(const LaunchConfig& cfg, const std::vector<Kernel>& phases,
                    std::uint32_t block, std::uint32_t warps_per_block,
                    BlockResult& result, BlockWork& work);

  DeviceConfig config_;
  MemorySystem memory_;
  TimingEngine engine_;
  DeviceReport report_;
  std::unique_ptr<san::Sanitizer> san_;  ///< null unless config_.sanitize
  std::unique_ptr<prof::Profiler> prof_;  ///< null unless config_.profile
  std::unique_ptr<check::LaunchPlan> plan_;  ///< null unless config_.check
  std::uint64_t next_addr_ = 0x1000;
  /// Current launch's committed speculative writes (single-touch: each byte
  /// is staged in one overlay and landed once at its commit slot). Fed to
  /// the profiler next to the MemorySystem wave-commit delta.
  std::uint64_t overlay_writes_ = 0;
  std::uint64_t overlay_bytes_ = 0;

  // Parallel wave executor state (lazily built on the first launch).
  std::unique_ptr<support::ThreadPool> pool_;  ///< null when 1 host thread
  std::vector<std::unique_ptr<ExecArena>> arenas_;  ///< one per pool slot
  std::vector<BlockWork> works_;          ///< per-wave, reused across waves
  std::vector<std::unique_ptr<BlockResult>> results_;  ///< per-wave, reused
  std::vector<std::vector<const BlockWork*>> per_sm_;  ///< per-wave, reused
};

}  // namespace speckle::simt
