#include "coloring/gm3step.hpp"

#include <vector>

#include "coloring/seq_greedy.hpp"
#include "support/timer.hpp"

namespace speckle::coloring {

using graph::eid_t;
using graph::vid_t;

namespace {

/// Step-2 repetitions before the CPU pass.
constexpr std::uint32_t kGm3GpuRounds = 3;

}  // namespace

Gm3Result gm3step_color(const graph::CsrGraph& g, const Gm3Options& opts) {
  support::Timer wall;
  const vid_t n = g.num_vertices();
  Gm3Result result;
  if (n == 0) return result;

  simt::Device dev(opts.device);
  DeviceGraph dg = upload_graph(dev, g);
  auto colors = dev.alloc<std::uint32_t>(n, "colors");
  auto conflicted = dev.alloc<std::uint32_t>(n, "conflicted");
  colors.fill(kUncolored);
  conflicted.fill(1);  // round 1 colors everything

  const vid_t num_partitions = (n + kGm3PartitionSize - 1) / kGm3PartitionSize;
  simt::LaunchConfig part_cfg{
      (num_partitions + opts.block_size - 1) / opts.block_size, opts.block_size};
  part_cfg.racy_visibility = true;  // partition coloring speculates via st_racy
  const simt::LaunchConfig vert_cfg{(n + opts.block_size - 1) / opts.block_size,
                                    opts.block_size};

  // The partition walker never routes R/C through the RO cache (Grosset's
  // kernel predates __ldg tuning), so both specs declare plain reads.
  const check::KernelSpec color_spec = graph_spec(dg, /*use_ldg=*/false)
                                           .reads(conflicted)
                                           .reads(colors)
                                           .racy(colors);
  const check::KernelSpec detect_spec =
      graph_spec(dg, /*use_ldg=*/false).reads(colors).writes(conflicted);

  // Step 2, repeated: color the conflicted vertices partition-by-partition
  // (one thread walks its whole partition — Grosset's mapping), then detect
  // cross-thread conflicts over all vertices.
  for (std::uint32_t round = 0; round < kGm3GpuRounds; ++round) {
    ++result.iterations;
    dev.launch(part_cfg, "gm3_color_partition", color_spec, [&](simt::Thread& t) {
      const auto p = static_cast<vid_t>(t.global_id());
      if (p >= num_partitions) return;
      const vid_t lo = p * kGm3PartitionSize;
      const vid_t hi = std::min<vid_t>(lo + kGm3PartitionSize, n);
      t.compute(3);
      // Local copy of the partition's colors: the thread must see its own
      // assignments immediately (within-partition neighbors), while other
      // partitions observe them only after the warp retires (st_racy).
      std::vector<color_t> local(hi - lo);
      for (vid_t v = lo; v < hi; ++v) local[v - lo] = t.ld(colors, v);
      for (vid_t v = lo; v < hi; ++v) {
        t.compute(2);
        if (t.ld(conflicted, v) == 0) continue;
        const eid_t begin = t.ld(dg.row, v);
        const eid_t end = t.ld(dg.row, v + 1);
        t.compute(2);
        color_t c = kUncolored;
        for (color_t base = 1; c == kUncolored; base += 64) {
          std::uint64_t forbidden = 0;
          for (eid_t e = begin; e < end; ++e) {
            const vid_t w = t.ld(dg.col, e);
            color_t cw;
            if (w >= lo && w < hi) {
              cw = local[w - lo];  // register/local-memory access
              t.compute(2);
            } else {
              cw = t.ld(colors, w);
            }
            if (cw >= base && cw < base + 64) forbidden |= 1ULL << (cw - base);
            t.compute(3);
          }
          if (forbidden != ~0ULL) {
            color_t offset = 0;
            while (forbidden & (1ULL << offset)) ++offset;
            c = base + offset;
          }
        }
        local[v - lo] = c;
        t.st_racy(colors, v, c);
      }
    });

    dev.launch(vert_cfg, "gm3_detect", detect_spec, [&](simt::Thread& t) {
      const auto v = static_cast<vid_t>(t.global_id());
      if (v >= n) return;
      t.compute(2);
      const bool conflict = device_conflict(t, dg, colors, v, /*use_ldg=*/false);
      t.st(conflicted, v, conflict ? 1U : 0U);
    });
  }

  // Step 3: ship the colors and conflict flags to the host, resolve the
  // remaining conflicts sequentially with first fit, and ship colors back.
  dev.copy_to_host(colors.byte_size() + conflicted.byte_size());
  result.coloring.assign(colors.host().begin(), colors.host().end());

  cpumodel::CpuModel cpu(opts.cpu);
  for (vid_t v = 0; v < n; ++v) {
    cpu.touch_read(&conflicted[v], sizeof(std::uint32_t));
    cpu.compute(1);
    if (conflicted[v] == 0) continue;
    ++result.cpu_resolved;
    cpu.touch_read(&g.row_offsets()[v], 2 * sizeof(eid_t));
    for (vid_t w : g.neighbors(v)) {
      cpu.touch_read(&w, sizeof(vid_t));
      cpu.touch_read(&result.coloring[w], sizeof(color_t));
      cpu.compute(3);
    }
    result.coloring[v] = first_fit_color(g, result.coloring, v);
    cpu.touch_write(&result.coloring[v], sizeof(color_t));
    cpu.compute(4);
  }
  result.cpu_ms = cpu.ms();
  // Charge the host work to the device timeline (converted to GPU cycles).
  const double gpu_cycles =
      cpu.cycles() / opts.cpu.clock_ghz * opts.device.core_clock_ghz;
  dev.charge_host_cycles(static_cast<std::uint64_t>(gpu_cycles));
  dev.copy_to_device(colors.byte_size());

  result.num_colors = count_colors(result.coloring);
  finish_gpu_result(result, dev, wall);
  return result;
}

}  // namespace speckle::coloring
