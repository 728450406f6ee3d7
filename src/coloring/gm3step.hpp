#pragma once
/// \file gm3step.hpp
/// The 3-step GM framework of Grosset et al. ("Evaluating graph coloring
/// on GPUs", PPoPP'11) — the existing speculative-greedy GPU baseline the
/// paper improves on (Fig 1):
///
///   1. *Graph partitioning*: the vertex set is split into fixed-size
///      contiguous partitions; each partition is assigned to ONE thread,
///      which colors its subgraph sequentially with first fit.
///   2. *Coloring & conflict detection* on the GPU, repeated a fixed number
///      of rounds to shrink the conflict set. Boundary (cross-partition)
///      edges are where speculation races, so conflicts abound.
///   3. *Sequential conflict resolution on the CPU*: the color array is
///      copied back over PCIe, the conflicting vertices are re-colored by
///      the host one by one (charged to the CPU cost model), and the
///      result is copied back to the device.
///
/// The pathologies the paper measures — per-thread serial subgraph loops
/// (no coalescing, low occupancy), host/device round trips, and a
/// sequential tail — all fall out of this structure.

#include "coloring/gpu_common.hpp"
#include "cpumodel/cpu_model.hpp"

namespace speckle::coloring {

/// Vertices colored per thread in step 1.
inline constexpr graph::vid_t kGm3PartitionSize = 128;

struct Gm3Options : GpuOptions {
  cpumodel::CpuConfig cpu = cpumodel::CpuConfig::xeon_e5_2670();
};

struct Gm3Result : GpuResult {
  graph::vid_t cpu_resolved = 0;  ///< conflicts left for the sequential step
  double cpu_ms = 0.0;            ///< CPU-model time of step 3
};

Gm3Result gm3step_color(const graph::CsrGraph& g, const Gm3Options& opts = {});

}  // namespace speckle::coloring
