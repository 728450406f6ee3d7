#include "coloring/distance2.hpp"

#include <vector>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace speckle::coloring {

using graph::eid_t;
using graph::vid_t;

VerifyResult verify_coloring_d2(const graph::CsrGraph& g, const Coloring& coloring) {
  SPECKLE_CHECK(coloring.size() == g.num_vertices(), "coloring size mismatch");
  VerifyResult result;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (coloring[v] == kUncolored) {
      ++result.uncolored;
      continue;
    }
    result.num_colors = std::max(result.num_colors, coloring[v]);
    for (vid_t w : g.neighbors(v)) {
      if (coloring[v] == coloring[w]) ++result.conflicts;
      for (vid_t u : g.neighbors(w)) {
        if (u != v && coloring[v] == coloring[u]) ++result.conflicts;
      }
    }
  }
  // Distance-1 conflicts were counted from both endpoints; distance-2
  // conflicts from both endpoints as well (once per connecting path — a
  // nonzero count is what matters for validity).
  result.proper = result.uncolored == 0 && result.conflicts == 0;
  return result;
}

SeqD2Result seq_greedy_d2(const graph::CsrGraph& g) {
  const vid_t n = g.num_vertices();
  SeqD2Result result;
  result.coloring.assign(n, kUncolored);
  support::Timer timer;
  // First-fit needs at most deg*maxdeg+1 colors; allocate lazily by growing.
  std::vector<vid_t> color_mask(64, graph::kInvalidVertex);
  for (vid_t v = 0; v < n; ++v) {
    auto stamp = [&](vid_t other) {
      const color_t c = result.coloring[other];
      if (c >= color_mask.size()) {
        color_mask.resize(c + 64, graph::kInvalidVertex);
      }
      color_mask[c] = v;
    };
    for (vid_t w : g.neighbors(v)) {
      stamp(w);
      for (vid_t u : g.neighbors(w)) {
        if (u != v) stamp(u);
      }
    }
    color_t c = 1;
    while (c < color_mask.size() && color_mask[c] == v) ++c;
    result.coloring[v] = c;
  }
  result.wall_ms = timer.milliseconds();
  result.num_colors = count_colors(result.coloring);
  return result;
}

namespace {

/// Device-side D2 first fit: the forbidden window covers neighbors and
/// neighbors-of-neighbors. Widens on overflow like device_first_fit.
color_t device_first_fit_d2(simt::Thread& t, const DeviceGraph& dg,
                            simt::Buffer<std::uint32_t>& colors, vid_t v,
                            bool use_ldg) {
  const eid_t begin = use_ldg ? t.ldg(dg.row, v) : t.ld(dg.row, v);
  const eid_t end = use_ldg ? t.ldg(dg.row, v + 1) : t.ld(dg.row, v + 1);
  t.compute(2);
  for (color_t base = 1;; base += 64) {
    std::uint64_t forbidden = 0;
    auto mark = [&](color_t c) {
      if (c >= base && c < base + 64) forbidden |= 1ULL << (c - base);
    };
    for (eid_t e = begin; e < end; ++e) {
      const vid_t w = use_ldg ? t.ldg(dg.col, e) : t.ld(dg.col, e);
      mark(t.ld(colors, w));
      t.compute(3);
      const eid_t w_begin = use_ldg ? t.ldg(dg.row, w) : t.ld(dg.row, w);
      const eid_t w_end = use_ldg ? t.ldg(dg.row, w + 1) : t.ld(dg.row, w + 1);
      t.compute(2);
      for (eid_t f = w_begin; f < w_end; ++f) {
        const vid_t u = use_ldg ? t.ldg(dg.col, f) : t.ld(dg.col, f);
        if (u == v) {
          t.compute(2);
          continue;
        }
        mark(t.ld(colors, u));
        t.compute(3);
      }
    }
    if (forbidden != ~0ULL) {
      color_t offset = 0;
      while (forbidden & (1ULL << offset)) ++offset;
      t.compute(2);
      return base + offset;
    }
    t.compute(2);
  }
}

/// Device-side D2 conflict test with the id tie-break over both hops.
bool device_conflict_d2(simt::Thread& t, const DeviceGraph& dg,
                        simt::Buffer<std::uint32_t>& colors, vid_t v,
                        bool use_ldg) {
  const eid_t begin = use_ldg ? t.ldg(dg.row, v) : t.ld(dg.row, v);
  const eid_t end = use_ldg ? t.ldg(dg.row, v + 1) : t.ld(dg.row, v + 1);
  const color_t cv = t.ld(colors, v);
  t.compute(2);
  for (eid_t e = begin; e < end; ++e) {
    const vid_t w = use_ldg ? t.ldg(dg.col, e) : t.ld(dg.col, e);
    t.compute(3);
    if (cv == t.ld(colors, w) && v < w) return true;
    const eid_t w_begin = use_ldg ? t.ldg(dg.row, w) : t.ld(dg.row, w);
    const eid_t w_end = use_ldg ? t.ldg(dg.row, w + 1) : t.ld(dg.row, w + 1);
    t.compute(2);
    for (eid_t f = w_begin; f < w_end; ++f) {
      const vid_t u = use_ldg ? t.ldg(dg.col, f) : t.ld(dg.col, f);
      t.compute(3);
      if (u != v && cv == t.ld(colors, u) && v < u) return true;
    }
  }
  return false;
}

}  // namespace

GpuResult topo_color_d2(const graph::CsrGraph& g, const GpuOptions& opts) {
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
    dev.copy_to_device(sizeof(std::uint32_t));

    dev.launch(racy_cfg, "topo_color_d2", color_spec, [&](simt::Thread& t) {
      const auto v = static_cast<vid_t>(t.global_id());
      if (v >= n) return;
      t.compute(2);
      if (t.ld(colored, v) != 0) return;
      const color_t c = device_first_fit_d2(t, dg, colors, v, opts.use_ldg);
      t.st_racy(colors, v, c);
      t.st(colored, v, 1U);
      t.st(changed, 0, 1U);
    });

    dev.launch(cfg, "topo_detect_d2", detect_spec, [&](simt::Thread& t) {
      const auto v = static_cast<vid_t>(t.global_id());
      if (v >= n) return;
      t.compute(2);
      if (device_conflict_d2(t, dg, colors, v, opts.use_ldg)) {
        t.st(colored, v, 0U);
      }
    });

    dev.copy_to_host(sizeof(std::uint32_t));
    if (changed[0] == 0) break;
  }
  SPECKLE_CHECK(changed[0] == 0, "topo_color_d2 exceeded kMaxRounds");

  result.coloring.assign(colors.host().begin(), colors.host().end());
  result.num_colors = count_colors(result.coloring);
  finish_gpu_result(result, dev, wall);
  return result;
}

}  // namespace speckle::coloring
