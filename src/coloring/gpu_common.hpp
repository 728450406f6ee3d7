#pragma once
/// \file gpu_common.hpp
/// Shared pieces of the GPU-sim coloring schemes: the device-resident CSR
/// graph, the common launch options/results, and the device routines every
/// kernel is built from (first-fit color search, conflict test).

#include <bit>
#include <cstdint>

#include "coloring/coloring.hpp"
#include "graph/csr_graph.hpp"
#include "simt/device.hpp"
#include "support/timer.hpp"

namespace speckle::coloring {

/// CSR arrays uploaded to the simulated device. The graph is stored exactly
/// as Fig 2: row offsets R (n+1) and column indices C (m).
struct DeviceGraph {
  simt::Buffer<graph::eid_t> row;
  simt::Buffer<graph::vid_t> col;
  graph::vid_t num_vertices = 0;
};

/// Allocate and fill the device CSR arrays. The initial upload is *not*
/// charged to the timeline — the paper times only the computation part —
/// call dev.copy_to_device(...) explicitly where a scheme's mid-run
/// transfers do count.
DeviceGraph upload_graph(simt::Device& dev, const graph::CsrGraph& g);

/// Round cap of every iterative scheme (single- and multi-device). No
/// correct run comes near it; exceeding it means a livelock and aborts.
inline constexpr std::uint32_t kMaxRounds = 100000;

/// True for the block sizes every scheme runs at: powers of two in
/// [32, 1024] (the scan push needs a power of two, the warp-centric
/// kernels a warp multiple, the K20c at most 1024 threads per block).
constexpr bool valid_block_size(std::uint32_t block) {
  return std::has_single_bit(block) && block >= 32 && block <= 1024;
}

/// Options shared by every GPU-sim scheme.
struct GpuOptions {
  std::uint32_t block_size = 128;  ///< the paper's default (Fig 8)
  bool use_ldg = false;            ///< route R and C through the RO cache
  simt::DeviceConfig device = simt::DeviceConfig::k20c();
};

struct GpuResult {
  Coloring coloring;
  color_t num_colors = 0;
  std::uint32_t iterations = 0;
  simt::DeviceReport report;  ///< kernel log, transfers, timeline
  double model_ms = 0.0;      ///< report.total_cycles in milliseconds
  double wall_ms = 0.0;       ///< host wall clock of the simulation itself
  san::Report san;      ///< sanitizer findings (empty unless
                              ///< GpuOptions::device.sanitize was set)
  prof::Report prof;    ///< profiler counters/timeline (empty unless
                              ///< GpuOptions::device.profile was set)
  check::Report check;  ///< static launch-plan findings (empty unless
                              ///< GpuOptions::device.check was set)
};

/// Fill the result fields every scheme reports identically: the device
/// report, the model/wall-clock milliseconds, the sanitizer findings and
/// the static checker's verdict over the accumulated launch plan.
void finish_gpu_result(GpuResult& result, const simt::Device& dev,
                       const support::Timer& wall);

/// Start a KernelSpec with the adjacency reads every device routine
/// (device_first_fit / device_conflict*) performs: R and C, through the RO
/// cache when `use_ldg` is set and plain loads otherwise.
check::KernelSpec graph_spec(const DeviceGraph& dg, bool use_ldg);

/// Device-side first fit: smallest color >= 1 not used by any neighbor of
/// v, scanning a 64-color bitmask window and widening on overflow (the GPU
/// adaptation of Algorithm 1 line 6 — a colorMask array per thread does not
/// fit in registers). Adjacency (R, C) reads honor `use_ldg`; neighbor
/// colors always use plain loads (the array is written during the kernel).
color_t device_first_fit(simt::Thread& t, const DeviceGraph& dg,
                         simt::Buffer<std::uint32_t>& colors, graph::vid_t v,
                         bool use_ldg);

/// Device-side conflict test (Algorithms 4/5): true when some neighbor w
/// has color[w] == color[v] and v < w (the lower id loses and re-colors).
bool device_conflict(simt::Thread& t, const DeviceGraph& dg,
                     simt::Buffer<std::uint32_t>& colors, graph::vid_t v,
                     bool use_ldg);

/// Largest-degree-first variant of the conflict test (D-ldf extension):
/// the LOWER-degree endpoint loses, ids break degree ties. Loads both
/// endpoints' row offsets (the extra traffic is the price of the heuristic).
bool device_conflict_ldf(simt::Thread& t, const DeviceGraph& dg,
                         simt::Buffer<std::uint32_t>& colors, graph::vid_t v,
                         bool use_ldg);

}  // namespace speckle::coloring
