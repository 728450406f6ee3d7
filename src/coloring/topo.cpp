#include "coloring/topo.hpp"

#include "support/check.hpp"
#include "support/timer.hpp"

namespace speckle::coloring {

using graph::vid_t;

GpuResult topo_color(const graph::CsrGraph& g, const GpuOptions& opts) {
  support::Timer wall;
  const vid_t n = g.num_vertices();
  GpuResult result;
  if (n == 0) return result;

  simt::Device dev(opts.device);
  DeviceGraph dg = upload_graph(dev, g);
  auto colors = dev.alloc<std::uint32_t>(n, "colors");
  auto colored = dev.alloc<std::uint32_t>(n, "colored");
  auto changed = dev.alloc<std::uint32_t>(1, "changed");
  colors.fill(kUncolored);
  colored.fill(0);

  const simt::LaunchConfig cfg{(n + opts.block_size - 1) / opts.block_size,
                               opts.block_size};
  simt::LaunchConfig racy_cfg = cfg;
  racy_cfg.racy_visibility = true;  // the color kernel speculates via st_racy

  const check::KernelSpec color_spec = graph_spec(dg, opts.use_ldg)
                                           .reads(colors)
                                           .racy(colors)
                                           .reads(colored)
                                           .writes(colored)
                                           .writes(changed);
  const check::KernelSpec detect_spec =
      graph_spec(dg, opts.use_ldg).reads(colors).writes(colored);

  for (std::uint32_t iter = 0; iter < kMaxRounds; ++iter) {
    ++result.iterations;
    changed[0] = 0;
    dev.copy_to_device(sizeof(std::uint32_t));  // cudaMemset of the flag

    // Algorithm 4 lines 4-14: color the still-uncolored vertices
    // speculatively (warp-lockstep races produce the conflicts).
    dev.launch(racy_cfg, "topo_color", color_spec, [&](simt::Thread& t) {
      const auto v = static_cast<vid_t>(t.global_id());
      if (v >= n) return;
      t.compute(2);
      if (t.ld(colored, v) != 0) return;
      const color_t c = device_first_fit(t, dg, colors, v, opts.use_ldg);
      t.st_racy(colors, v, c);
      t.st(colored, v, 1U);
      t.st(changed, 0, 1U);
    });

    // Lines 15-21: detect conflicts over the entire vertex set (this is
    // the topology-driven scheme's work-inefficiency) and un-color losers.
    dev.launch(cfg, "topo_detect", detect_spec, [&](simt::Thread& t) {
      const auto v = static_cast<vid_t>(t.global_id());
      if (v >= n) return;
      t.compute(2);
      if (device_conflict(t, dg, colors, v, opts.use_ldg)) {
        t.st(colored, v, 0U);
      }
    });

    dev.copy_to_host(sizeof(std::uint32_t));  // read the changed flag
    if (changed[0] == 0) break;
  }

  result.coloring.assign(colors.host().begin(), colors.host().end());
  // Vertices whose colored flag was cleared on the final conflict pass hold
  // stale colors; Algorithm 4 exits only when a full round colors nothing,
  // so at that point every flag is set and every color is final.
  SPECKLE_CHECK(changed[0] == 0, "topo_color exceeded kMaxRounds");
  result.num_colors = count_colors(result.coloring);
  finish_gpu_result(result, dev, wall);
  return result;
}

}  // namespace speckle::coloring
