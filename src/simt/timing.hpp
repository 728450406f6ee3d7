#pragma once
/// \file timing.hpp
/// Event-driven per-SM warp scheduling over merged warp traces.
///
/// Each SM interleaves its resident warps: at every step the scheduler
/// issues from the ready warp with the earliest ready-time, charging issue
/// bandwidth (4 schedulers per Kepler SMX). A warp's ready-time advances by
/// the latency of what it issued: ALU pipeline latency, the memory system's
/// answer for each coalesced transaction (with MSHR throttling), atomic-unit
/// completion, or a block barrier. Whenever the scheduler must jump forward
/// in time, the gap is attributed to the stall reason of the warp that ends
/// it — producing the Fig 3(b) breakdown. A wave's duration is additionally
/// floored by the DRAM bandwidth its transactions consumed (Fig 3(a)'s
/// achieved-bandwidth axis).
///
/// The event loop keeps two min-structures, each shaped to how it is used:
/// a winner tree over the SM's warp slots picks the next warp (one
/// leaf-to-root replay per issued op), and a sorted-run queue holds the
/// outstanding DRAM-miss completions (pop = advance the head, push =
/// insert from the tail). All per-wave runtime state (warp/barrier tables,
/// both queues, the per-SM wave views and stats partials) is pooled on the
/// engine and reused across waves, so steady-state timing performs no heap
/// allocation.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "simt/config.hpp"
#include "simt/memory.hpp"
#include "simt/stats.hpp"
#include "simt/trace.hpp"

namespace speckle::support {
class ThreadPool;
}

namespace speckle::simt {

/// Cycles to move `bytes` between two peer devices over the modeled
/// interconnect (DeviceConfig::d2d_latency_us/d2d_gbps): a fixed setup
/// latency plus the bandwidth term, mirroring the PCIe host-transfer model.
/// Used by Device::copy_peer for the multi-device boundary exchanges.
std::uint64_t d2d_transfer_cycles(const DeviceConfig& dev, std::uint64_t bytes);

/// One thread block's merged warp traces, ready for timing. The warps
/// vector is a grow-only pool (shrinking would free the SoA buffers the
/// reuse depends on); the first `active` entries are this block's.
struct BlockWork {
  std::vector<WarpTrace> warps;
  std::uint32_t active = 0;
};

/// Winner (tournament) tree over the warp slots of one SM, keyed by
/// (ready time, slot index). The root is the earliest-ready warp, the
/// lowest index on ties. Each node stores its subtree's winner, so
/// re-keying one leaf replays only its leaf-to-root path, comparing against
/// the untouched siblings. A key of +inf takes a slot out of contention
/// (parked at a barrier, or finished).
class WarpWinnerTree {
 public:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  /// `n` slots, every one keyed `key`.
  void reset(std::uint32_t n, double key) {
    leaves_ = std::bit_ceil(std::max(n, 1U));
    nodes_.assign(2 * static_cast<std::size_t>(leaves_), {kNever, 0});
    for (std::uint32_t i = 0; i < leaves_; ++i) {
      nodes_[leaves_ + i] = {i < n ? key : kNever, i};
    }
    for (std::uint32_t node = leaves_ - 1; node >= 1; --node) {
      const Entry& l = nodes_[2 * node];
      const Entry& r = nodes_[2 * node + 1];
      nodes_[node] = r.key < l.key ? r : l;
    }
  }

  /// Re-key slot `i` and replay its path to the root.
  void update(std::uint32_t i, double key) {
    Entry* nodes = nodes_.data();
    std::uint32_t pos = leaves_ + i;
    Entry cur{key, i};
    nodes[pos] = cur;
    // Left subtrees hold the lower indices, so a left sibling wins ties
    // and a right sibling must be strictly earlier.
    for (; pos > 1; pos >>= 1) {
      const Entry& sib = nodes[pos ^ 1];
      if ((pos & 1) ? !(cur.key < sib.key) : sib.key < cur.key) cur = sib;
      nodes[pos >> 1] = cur;
    }
  }

  std::uint32_t top() const { return nodes_[1].index; }
  double top_key() const { return nodes_[1].key; }

 private:
  struct Entry {
    double key;
    std::uint32_t index;
  };
  std::uint32_t leaves_ = 1;
  std::vector<Entry> nodes_;  ///< node k has children 2k, 2k+1; leaves from leaves_
};

/// Outstanding DRAM-miss completion times of one SM (its MSHRs), kept as
/// one ascending array over borrowed storage: the minimum sits at the head
/// and pops by advancing it; a push inserts from the tail. Completion times
/// ascend within one warp instruction's transactions but not across
/// instructions, so the array is a merge of short sorted runs and tail
/// insertion moves few elements. The engine keeps the queue a local of its
/// event loop, so head and tail live in registers.
class MshrQueue {
 public:
  /// Room for `capacity` outstanding misses; `storage` must hold
  /// storage_size(capacity) doubles. The caller pops before pushing onto a
  /// full queue.
  MshrQueue(double* storage, std::size_t capacity)
      : buf_(storage), end_(storage_size(capacity)) {}
  static std::size_t storage_size(std::size_t capacity) { return 2 * capacity; }

  std::size_t size() const { return tail_ - head_; }
  double min() const { return buf_[head_]; }
  void pop() { ++head_; }

  /// Pop every completion at or before `now`.
  void drain(double now) {
    while (head_ != tail_ && buf_[head_] <= now) ++head_;
  }

  void push(double t) {
    if (tail_ == end_) {
      // Slide the live run back to the start; at most `capacity` elements
      // every `capacity` pushes.
      std::copy(buf_ + head_, buf_ + tail_, buf_);
      tail_ -= head_;
      head_ = 0;
    }
    std::size_t i = tail_++;
    for (; i > head_ && buf_[i - 1] > t; --i) buf_[i] = buf_[i - 1];
    buf_[i] = t;
  }

 private:
  double* buf_;
  std::size_t end_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

class TimingEngine {
 public:
  TimingEngine(const DeviceConfig& dev, MemorySystem& memory)
      : dev_(dev), memory_(memory) {}

  /// Simulate one wave. `per_sm[sm]` holds the blocks resident on that SM.
  /// Returns the wave's end cycle; accumulates counters and stalls into
  /// `stats`. Each SM's event loop runs against its own wave view of the
  /// memory system and its own stats partial, merged in SM order afterwards
  /// — so the result is bit-identical whether the loops run serially
  /// (`pool == nullptr`) or concurrently on `pool`. When `profile` is
  /// non-null it receives the wave's per-SM timing samples (same SM-order
  /// merge, same determinism).
  double run_wave(const std::vector<std::vector<const BlockWork*>>& per_sm,
                  double start, KernelStats& stats,
                  support::ThreadPool* pool = nullptr,
                  WaveProfile* profile = nullptr);

 private:
  struct SmOutcome {
    double finish = 0.0;
    std::uint64_t dram_transactions = 0;
  };

  /// One resident warp. Its ready time is its key in the winner tree.
  struct WarpRt {
    const WarpTrace* trace = nullptr;
    std::size_t cursor = 0;
    Stall reason = Stall::kIdle;
    std::uint32_t block_slot = 0;

    bool done() const { return cursor >= trace->size(); }
  };

  struct BarrierRt {
    std::uint32_t expected = 0;
    std::uint32_t arrived = 0;
    double max_arrival = 0.0;
    std::vector<std::uint32_t> waiting;
  };

  /// Per-SM event-loop scratch, reused across waves. Distinct SMs use
  /// distinct entries, so the pool-parallel loops never share one.
  struct SmScratch {
    std::vector<WarpRt> warps;
    std::vector<BarrierRt> barriers;
    std::vector<double> mshr;  ///< MshrQueue storage
    /// Picks the next warp: the earliest-ready one, lowest index on ties.
    /// Parked and finished warps hold +inf.
    WarpWinnerTree ready;
  };

  SmOutcome run_sm(std::uint32_t sm, const std::vector<const BlockWork*>& blocks,
                   double start, KernelStats& stats, MemorySystem::WaveView& view);

  const DeviceConfig& dev_;
  MemorySystem& memory_;
  // Pooled per-wave state (lazily sized on the first wave).
  std::vector<SmScratch> scratch_;
  std::vector<MemorySystem::WaveView> views_;
  std::vector<KernelStats> partials_;
  std::vector<SmOutcome> outcomes_;
};

}  // namespace speckle::simt
