#include "coloring/recolor.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace speckle::coloring {

using graph::vid_t;

std::uint32_t speculate_resolve(simt::Device& dev, const DeviceGraph& dg,
                                simt::Buffer<std::uint32_t>& colors,
                                simt::Worklist& list_a, simt::Worklist& list_b,
                                const DataOptions& opts,
                                std::uint32_t iterations_in) {
  simt::Worklist* w_in = &list_a;
  simt::Worklist* w_out = &list_b;
  std::uint32_t iterations = iterations_in;

  while (!w_in->empty()) {
    SPECKLE_CHECK(iterations < kMaxRounds,
                  "data_color exceeded kMaxRounds");
    ++iterations;
    const std::uint32_t count = w_in->size();
    const simt::LaunchConfig cfg{(count + opts.block_size - 1) / opts.block_size,
                                 opts.block_size};
    simt::LaunchConfig racy_cfg = cfg;
    racy_cfg.racy_visibility = true;  // the color kernel speculates via st_racy

    // Lines 4-10: speculatively color every vertex in the worklist.
    const check::KernelSpec color_spec = graph_spec(dg, opts.use_ldg)
                                             .reads(w_in->items(), 0, count)
                                             .reads(colors)
                                             .racy(colors);
    dev.launch(racy_cfg, "data_color", color_spec, [&](simt::Thread& t) {
      const auto idx = t.global_id();
      if (idx >= count) return;
      t.compute(2);
      const vid_t v = t.ld(w_in->items(), idx);
      const color_t c = device_first_fit(t, dg, colors, v, opts.use_ldg);
      t.st_racy(colors, v, c);
    });

    // Lines 11-18: detect conflicts among the just-colored vertices and
    // compact the losers into the out-worklist. (The paper's listing scans
    // all of V here; only same-round vertices can conflict, so scanning
    // W_in is equivalent and is what keeps the scheme work-efficient —
    // see DESIGN.md §6.)
    w_out->clear();
    dev.copy_to_device(sizeof(std::uint32_t));  // memset of the out tail
    // Each consumed item re-enters at most once, so `count` bounds the
    // pushes; both push paths (scan_push / atomic tail) ride the same
    // declaration.
    const check::KernelSpec detect_spec = graph_spec(dg, opts.use_ldg)
                                              .reads(w_in->items(), 0, count)
                                              .reads(colors)
                                              .pushes(*w_out, count);
    dev.launch(cfg, "data_detect", detect_spec, [&](simt::Thread& t) {
      const auto idx = t.global_id();
      if (idx >= count) return;
      t.compute(2);
      const vid_t v = t.ld(w_in->items(), idx);
      const bool conflict = opts.ldf_tiebreak
                                ? device_conflict_ldf(t, dg, colors, v, opts.use_ldg)
                                : device_conflict(t, dg, colors, v, opts.use_ldg);
      if (!conflict) return;
      if (opts.scan_push) {
        t.scan_push(*w_out, v);
      } else {
        const std::uint32_t slot = t.atomic_add(w_out->tail(), 0, 1U);
        t.st(w_out->items(), slot, v);
      }
    });
    dev.copy_to_host(sizeof(std::uint32_t));  // read |W_out|

    std::swap(w_in, w_out);
  }
  return iterations;
}

RecolorResult recolor_region(const graph::CsrGraph& g, const Coloring& base,
                             std::span<const vid_t> dirty,
                             const RecolorOptions& opts) {
  support::Timer wall;
  const vid_t n = g.num_vertices();
  SPECKLE_CHECK(base.size() == n, "recolor_region: coloring/graph size mismatch");

  RecolorResult result;
  if (n == 0) return result;
  if (dirty.empty()) {
    // Nothing invalidated: the base coloring stands as-is.
    result.coloring = base;
    result.num_colors = count_colors(result.coloring);
    result.wall_ms = wall.milliseconds();
    return result;
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    SPECKLE_CHECK(dirty[i] < n, "recolor_region: dirty vertex out of range");
    SPECKLE_CHECK(i == 0 || dirty[i] > dirty[i - 1],
                  "recolor_region: dirty set must be sorted and unique");
  }

  result.full =
      static_cast<double>(dirty.size()) >
      kFullRecolorFraction * static_cast<double>(n);

  simt::Device dev(opts.device);
  DeviceGraph dg = upload_graph(dev, g);
  auto colors = dev.alloc<std::uint32_t>(n, "colors");
  simt::Worklist list_a(dev, n, "list_a");
  simt::Worklist list_b(dev, n, "list_b");

  if (result.full) {
    // Dirty region too large for the incremental path to pay off: exactly
    // the from-scratch data_color initial state.
    colors.fill(kUncolored);
    list_a.fill_iota(n);
  } else {
    colors.copy_from(base);
    // Seed the worklist with the dirty region only. The color kernel
    // overwrites every seeded vertex's (possibly stale) color on the first
    // round, so no reset is needed — and keeping the stale colors visible
    // merely steers first-fit away from them, it cannot break properness
    // (conflicts among same-round speculation are what detect resolves).
    std::uint32_t tail = 0;
    for (const vid_t v : dirty) list_a.items()[tail++] = v;
    list_a.tail()[0] = tail;
    // The incremental entry charges the dirty-set upload (the server ships
    // the region to the device); the base colors are already resident.
    dev.copy_to_device(tail * sizeof(std::uint32_t));
  }

  result.iterations =
      speculate_resolve(dev, dg, colors, list_a, list_b, opts, 0);

  result.coloring.assign(colors.host().begin(), colors.host().end());
  result.model_ms = dev.elapsed_ms();

  result.num_colors = count_colors(result.coloring);
  result.wall_ms = wall.milliseconds();
  return result;
}

std::vector<vid_t> dirty_from_inserts(const Coloring& coloring,
                                      std::span<const graph::Edge> inserted) {
  std::vector<vid_t> dirty;
  for (const graph::Edge& e : inserted) {
    if (coloring[e.src] != kUncolored && coloring[e.src] == coloring[e.dst]) {
      // device_conflict's convention: the lower id loses and re-colors.
      dirty.push_back(std::min(e.src, e.dst));
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

}  // namespace speckle::coloring
