#include "coloring/warp.hpp"

#include "simt/worklist.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace speckle::coloring {

using graph::eid_t;
using graph::vid_t;

namespace {

/// Lane-0 fallback when the cooperative 64-color window overflows (a
/// vertex with >= 64 distinctly-colored neighbors): rescan the adjacency
/// serially with ever-wider windows. Rare; costs the realistic divergence.
color_t lane0_wide_first_fit(simt::Thread& t, const DeviceGraph& dg,
                             simt::Buffer<std::uint32_t>& colors, eid_t begin,
                             eid_t end, bool use_ldg) {
  for (color_t base = 65;; base += 64) {
    std::uint64_t forbidden = 0;
    for (eid_t e = begin; e < end; ++e) {
      const vid_t w = use_ldg ? t.ldg(dg.col, e) : t.ld(dg.col, e);
      const color_t cw = t.ld(colors, w);
      if (cw >= base && cw < base + 64) forbidden |= 1ULL << (cw - base);
      t.compute(3);
    }
    if (forbidden != ~0ULL) {
      color_t offset = 0;
      while (forbidden & (1ULL << offset)) ++offset;
      return base + offset;
    }
  }
}

}  // namespace

GpuResult data_warp_color(const graph::CsrGraph& g, const DataOptions& opts) {
  support::Timer wall;
  const vid_t n = g.num_vertices();
  GpuResult result;
  if (n == 0) return result;
  SPECKLE_CHECK(opts.block_size % 32 == 0, "warp-centric blocks must be warp-multiple");

  simt::Device dev(opts.device);
  DeviceGraph dg = upload_graph(dev, g);
  auto colors = dev.alloc<std::uint32_t>(n, "colors");
  colors.fill(kUncolored);

  simt::Worklist list_a(dev, n, "list_a");
  simt::Worklist list_b(dev, n, "list_b");
  simt::Worklist* w_in = &list_a;
  simt::Worklist* w_out = &list_b;
  w_in->fill_iota(n);

  const std::uint32_t warps_per_block = opts.block_size / 32;

  while (!w_in->empty()) {
    SPECKLE_CHECK(result.iterations < kMaxRounds,
                  "data_warp_color exceeded kMaxRounds");
    ++result.iterations;
    const std::uint32_t count = w_in->size();

    // Phase 1: every lane strides its warp's adjacency, building a partial
    // 64-color forbidden mask in scratchpad (two words per thread).
    // Phase 2 (after the block barrier): lane 0 folds the 32 partial masks
    // and speculatively commits the first-fit color.
    simt::LaunchConfig color_cfg{
        (count + warps_per_block - 1) / warps_per_block, opts.block_size,
        /*regs_per_thread=*/37, /*smem_bytes_per_block=*/opts.block_size * 8};
    color_cfg.racy_visibility = true;  // phase 2 speculates via st_racy
    std::vector<simt::Kernel> phases = {
        [&](simt::Thread& t) {
          const std::uint32_t widx =
              t.block() * warps_per_block + t.warp_in_block();
          const std::uint32_t slot = t.thread_in_block() * 2;
          if (widx >= count) {
            t.shared_st(slot, 0);
            t.shared_st(slot + 1, 0);
            return;
          }
          // All 32 lanes load the same item/offset words: one broadcast
          // transaction per warp, as on real hardware.
          const vid_t v = t.ld(w_in->items(), widx);
          const eid_t begin = opts.use_ldg ? t.ldg(dg.row, v) : t.ld(dg.row, v);
          const eid_t end =
              opts.use_ldg ? t.ldg(dg.row, v + 1) : t.ld(dg.row, v + 1);
          t.compute(3);
          std::uint64_t mask = 0;
          for (eid_t e = begin + t.lane(); e < end; e += 32) {
            const vid_t w = opts.use_ldg ? t.ldg(dg.col, e) : t.ld(dg.col, e);
            const color_t cw = t.ld(colors, w);
            if (cw >= 1 && cw < 65) mask |= 1ULL << (cw - 1);
            t.compute(3);
          }
          t.shared_st(slot, static_cast<std::uint32_t>(mask));
          t.shared_st(slot + 1, static_cast<std::uint32_t>(mask >> 32));
        },
        [&](simt::Thread& t) {
          if (t.lane() != 0) return;
          const std::uint32_t widx =
              t.block() * warps_per_block + t.warp_in_block();
          if (widx >= count) return;
          const vid_t v = t.ld(w_in->items(), widx);
          std::uint64_t forbidden = 0;
          const std::uint32_t warp_base = t.warp_in_block() * 32;
          for (std::uint32_t l = 0; l < 32; ++l) {
            const std::uint64_t lo = t.shared_ld((warp_base + l) * 2);
            const std::uint64_t hi = t.shared_ld((warp_base + l) * 2 + 1);
            forbidden |= lo | (hi << 32);
          }
          t.compute(32);
          color_t c;
          if (forbidden != ~0ULL) {
            color_t offset = 0;
            while (forbidden & (1ULL << offset)) ++offset;
            c = 1 + offset;
            t.compute(2);
          } else {
            const eid_t begin = opts.use_ldg ? t.ldg(dg.row, v) : t.ld(dg.row, v);
            const eid_t end =
                opts.use_ldg ? t.ldg(dg.row, v + 1) : t.ld(dg.row, v + 1);
            c = lane0_wide_first_fit(t, dg, colors, begin, end, opts.use_ldg);
          }
          t.st_racy(colors, v, c);
        },
    };
    const check::KernelSpec color_spec = graph_spec(dg, opts.use_ldg)
                                             .reads(w_in->items(), 0, count)
                                             .reads(colors)
                                             .racy(colors);
    dev.launch_phased(color_cfg, "data_warp_color", color_spec, phases);

    // Detection + compaction: thread-centric, as in data_color.
    w_out->clear();
    dev.copy_to_device(sizeof(std::uint32_t));
    const simt::LaunchConfig detect_cfg{
        (count + opts.block_size - 1) / opts.block_size, opts.block_size};
    const check::KernelSpec detect_spec = graph_spec(dg, opts.use_ldg)
                                              .reads(w_in->items(), 0, count)
                                              .reads(colors)
                                              .pushes(*w_out, count);
    dev.launch(detect_cfg, "data_warp_detect", detect_spec, [&](simt::Thread& t) {
      const auto idx = t.global_id();
      if (idx >= count) return;
      t.compute(2);
      const vid_t v = t.ld(w_in->items(), idx);
      if (!device_conflict(t, dg, colors, v, opts.use_ldg)) return;
      if (opts.scan_push) {
        t.scan_push(*w_out, v);
      } else {
        const std::uint32_t slot = t.atomic_add(w_out->tail(), 0, 1U);
        t.st(w_out->items(), slot, v);
      }
    });
    dev.copy_to_host(sizeof(std::uint32_t));
    std::swap(w_in, w_out);
  }

  result.coloring.assign(colors.host().begin(), colors.host().end());
  result.num_colors = count_colors(result.coloring);
  finish_gpu_result(result, dev, wall);
  return result;
}

}  // namespace coloring
