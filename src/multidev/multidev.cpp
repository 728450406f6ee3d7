#include "multidev/multidev.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "coloring/gpu_common.hpp"
#include "simt/device.hpp"
#include "simt/worklist.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace speckle::multidev {

using coloring::color_t;
using coloring::kUncolored;
using graph::eid_t;
using graph::vid_t;

namespace {

/// Bytes one ghost update occupies on the interconnect: a (global id,
/// color) record, the minimal delta-exchange payload.
constexpr std::uint64_t kExchangeRecordBytes = sizeof(vid_t) + sizeof(color_t);

/// One simulated GPU plus its shard-local working set.
struct Node {
  std::string prefix;  ///< "d<k>.": names this device's buffers and kernels
  std::unique_ptr<simt::Device> dev;
  coloring::DeviceGraph dg;                 ///< shard-local CSR (ghost rows empty)
  simt::Buffer<std::uint32_t> colors;       ///< num_local: owned then ghost slots
  simt::Buffer<vid_t> l2g;                  ///< num_local: local id -> global id
  simt::Buffer<std::uint64_t> prio;         ///< num_local: static JP priority
  std::unique_ptr<simt::Worklist> list_a;
  std::unique_ptr<simt::Worklist> list_b;
  simt::Worklist* w_in = nullptr;
  simt::Worklist* w_out = nullptr;
  /// Boundary vertices that colored this round and survived the LOCAL
  /// conflict scan: their cross-cut check runs at the START of the next
  /// round, once the exchange their neighbors' colors ride on has landed
  /// (pend_in is checked, pend_out is filled, swapped at the barrier).
  std::unique_ptr<simt::Worklist> pend_a;
  std::unique_ptr<simt::Worklist> pend_b;
  simt::Worklist* pend_in = nullptr;
  simt::Worklist* pend_out = nullptr;
  std::uint32_t rounds = 0;           ///< rounds with live work on this device
  std::uint64_t sent_colors = 0;
  std::uint64_t recv_colors = 0;
  std::uint64_t exchange_busy = 0;    ///< DMA-busy cycles across this run
  std::uint64_t exchange_stall = 0;   ///< sync_to gaps the overlap didn't hide
};

/// Lane-0 fallback when the cooperative 64-color window overflows (a
/// vertex with >= 64 distinctly-colored neighbors): rescan the adjacency
/// serially with ever-wider windows, exactly like data_warp_color's.
color_t lane0_wide_first_fit(simt::Thread& t, const coloring::DeviceGraph& dg,
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

MultiDevResult multidev_color(const graph::CsrGraph& g, const MultiDevOptions& opts) {
  support::Timer wall;
  SPECKLE_CHECK(opts.num_devices >= 1, "multidev_color needs at least one device");
  SPECKLE_CHECK(opts.block_size % 32 == 0,
                "multi-device warp-centric kernels need a warp-multiple block");
  const std::uint32_t parts = opts.num_devices;

  MultiDevResult result;
  const graph::Partition part =
      graph::make_partition(g, parts, opts.partitioner);
  result.cut_edges = part.cut_edges;

  // --- bring up the fleet ---------------------------------------------------
  std::vector<Node> nodes(parts);
  for (std::uint32_t k = 0; k < parts; ++k) {
    const graph::Shard& shard = part.shards[k];
    Node& node = nodes[k];
    node.prefix = "d" + std::to_string(k) + ".";
    const std::string& prefix = node.prefix;
    node.dev = std::make_unique<simt::Device>(opts.device);
    simt::Device& dev = *node.dev;

    const vid_t num_local = shard.num_local();
    node.dg.num_vertices = num_local;
    node.dg.row = dev.alloc<eid_t>(shard.local.num_vertices() + 1, prefix + "row");
    node.dg.col = dev.alloc<vid_t>(shard.local.num_edges(), prefix + "col");
    node.dg.row.copy_from(shard.local.row_offsets());
    node.dg.col.copy_from(shard.local.col_indices());

    node.colors = dev.alloc<std::uint32_t>(num_local, prefix + "colors");
    node.colors.fill(kUncolored);
    node.l2g = dev.alloc<vid_t>(num_local, prefix + "l2g");
    for (vid_t i = 0; i < shard.num_owned(); ++i) node.l2g[i] = shard.owned[i];
    for (vid_t i = 0; i < shard.num_ghosts(); ++i) {
      node.l2g[shard.num_owned() + i] = shard.ghosts[i];
    }
    // Static deferral priority, identical for a vertex and all its ghost
    // copies: (global degree, seed-salted id hash). Uploaded once with the
    // topology (uncharged, like l2g).
    node.prio = dev.alloc<std::uint64_t>(num_local, prefix + "prio");
    for (vid_t i = 0; i < num_local; ++i) {
      const vid_t global_v = node.l2g[i];
      node.prio[i] =
          (static_cast<std::uint64_t>(g.degree(global_v)) << 32) |
          (support::mix64(opts.seed ^
                          (0xc2b2ae3d27d4eb4fULL * (global_v + 1ULL))) &
           0xffffffffULL);
    }

    const std::size_t capacity = std::max<std::size_t>(shard.num_owned(), 1);
    node.list_a = std::make_unique<simt::Worklist>(dev, capacity, prefix + "list_a");
    node.list_b = std::make_unique<simt::Worklist>(dev, capacity, prefix + "list_b");
    node.w_in = node.list_a.get();
    node.w_out = node.list_b.get();
    node.w_in->fill_iota(shard.num_owned());  // W_in <- owned(V_k)
    const std::size_t pend_cap = std::max<std::size_t>(shard.num_boundary, 1);
    node.pend_a = std::make_unique<simt::Worklist>(dev, pend_cap, prefix + "pend_a");
    node.pend_b = std::make_unique<simt::Worklist>(dev, pend_cap, prefix + "pend_b");
    node.pend_in = node.pend_a.get();
    node.pend_out = node.pend_b.get();
  }

  // Exchange plan: for each owned vertex, where do its ghost copies live?
  // subscribers[k][local] lists (peer device, peer color slot) pairs; built
  // once from the partition, iterated every round.
  struct Subscriber {
    std::uint32_t peer;
    vid_t slot;
  };
  std::vector<std::vector<std::vector<Subscriber>>> subscribers(parts);
  for (std::uint32_t k = 0; k < parts; ++k) {
    subscribers[k].resize(part.shards[k].num_owned());
  }
  for (std::uint32_t p = 0; p < parts; ++p) {
    const graph::Shard& shard = part.shards[p];
    for (vid_t gi = 0; gi < shard.num_ghosts(); ++gi) {
      const vid_t global_v = shard.ghosts[gi];
      const std::uint32_t owner = part.owner[global_v];
      subscribers[owner][part.local_index[global_v]].push_back(
          {p, static_cast<vid_t>(shard.num_owned() + gi)});
    }
  }

  // Scratch reused across rounds: bytes queued on each directed peer link.
  std::vector<std::uint64_t> link_bytes(
      static_cast<std::size_t>(parts) * parts, 0);
  // Async-exchange schedule state, in absolute fleet cycles (comparable
  // across devices because all timelines meet at the round barriers).
  // Each device has TWO copy engines, one per direction (the K20c ships
  // two async copy engines): a link transfer occupies the source's OUT
  // engine and the destination's IN engine, so a device's outbound
  // transfers serialize among themselves and its inbound transfers among
  // themselves, while send/receive and disjoint pairs overlap.
  // xfer_in_done[k]: completion of the latest INBOUND transfer of device k
  // this batch — the point the NEXT round's ghost consumers (cross-cut
  // scan, boundary speculation) may run. Outbound transfers need no
  // completion tracking: the payload is staged at ship time, so the DMA
  // never reads live color memory, only the engine serialization
  // (dma_out_free) persists.
  std::vector<std::uint64_t> dma_out_free(parts, 0);
  std::vector<std::uint64_t> dma_in_free(parts, 0);
  std::vector<std::uint64_t> xfer_in_done(parts, 0);
  std::vector<std::uint64_t> compute_ready(parts, 0);

  // --- lockstep SGR rounds --------------------------------------------------
  auto live = [](const Node& n) {
    return !n.w_in->empty() || !n.pend_in->empty();
  };
  // Write `color` into every ghost copy of device k's owned vertex v and
  // queue the record on the peer links. The payload is a DELTA: a ghost
  // copy that already holds `color` ships nothing (a deferred vertex whose
  // ghosts already read kUncolored, a loser retracted twice in a row).
  // Host-side writes through Buffer::operator[] mark the sanitizer's
  // shadow-init map, so the next kernel's ghost reads are san-clean.
  // A device with no remaining work is DEAD: by ship time its cross-cut
  // scan has already run (pend_in is spent), so if both its worklist and
  // its fresh loser list are empty, no kernel of its ever runs again and
  // nothing ever reads its ghost slots (the gather takes owner colors
  // only). Its peers stop shipping updates to it — the tail rounds, where
  // most of the fleet is drained, then carry only the links that matter.
  auto ship = [&](std::uint32_t k, std::uint32_t v, color_t color) {
    for (const Subscriber& s : subscribers[k][v]) {
      if (nodes[s.peer].w_in->empty() && nodes[s.peer].w_out->empty()) continue;
      if (nodes[s.peer].colors[s.slot] == color) continue;
      nodes[s.peer].colors[s.slot] = color;
      link_bytes[static_cast<std::size_t>(k) * parts + s.peer] +=
          kExchangeRecordBytes;
      ++nodes[k].sent_colors;
      ++nodes[s.peer].recv_colors;
      ++result.exchanged_colors;
    }
  };
  // Schedule every queued link as an asynchronous transfer and clear the
  // queue. A transfer starts when the source's OUT engine and the
  // destination's IN engine are free AND
  // both endpoints' compute has produced/consumed the slots it touches
  // (compute_ready: the source wrote the payload, the destination stopped
  // reading the ghost slots it overwrites); links are walked in (src, dst)
  // order, so the schedule is deterministic. Completion times land in
  // xfer_in_done; the caller decides where each device waits (sync_to) —
  // that wait, not the transfer itself, is what can extend an SM timeline.
  auto schedule_links = [&](prof::ExchangeRound& round_stats) {
    std::fill(xfer_in_done.begin(), xfer_in_done.end(), 0);
    for (std::uint32_t k = 0; k < parts; ++k) {
      compute_ready[k] = nodes[k].dev->timeline_cycles();
    }
    for (std::uint32_t src = 0; src < parts; ++src) {
      for (std::uint32_t dst = 0; dst < parts; ++dst) {
        const std::uint64_t bytes =
            link_bytes[static_cast<std::size_t>(src) * parts + dst];
        if (bytes == 0) continue;
        const std::uint64_t cycles = simt::d2d_transfer_cycles(opts.device, bytes);
        const std::uint64_t start =
            std::max({dma_out_free[src], dma_in_free[dst], compute_ready[src],
                      compute_ready[dst]});
        const std::uint64_t done = start + cycles;
        dma_out_free[src] = dma_in_free[dst] = done;
        xfer_in_done[dst] = std::max(xfer_in_done[dst], done);
        nodes[src].dev->copy_peer_async(bytes, start, cycles);
        nodes[dst].dev->copy_peer_async(bytes, start, cycles);
        // Static view of the flight (speckle::check): the destination's
        // ghost color slots are being overwritten until next round's
        // consume-point fence. copy_write is idempotent while the window
        // is open, so the per-link granularity collapses to one planned
        // copy per receiving device per round.
        nodes[dst].dev->plan_copy_write(
            nodes[dst].colors.base_addr(),
            static_cast<std::uint64_t>(part.shards[dst].num_owned()) *
                sizeof(std::uint32_t),
            nodes[dst].colors.byte_size(), "ghost-exchange");
        nodes[src].exchange_busy += cycles;
        nodes[dst].exchange_busy += cycles;
        round_stats.batches += 2;
        round_stats.bytes += 2 * bytes;
        round_stats.cycles += 2 * cycles;
      }
    }
    std::fill(link_bytes.begin(), link_bytes.end(), 0);
  };

  while (std::any_of(nodes.begin(), nodes.end(), live)) {
    SPECKLE_CHECK(result.iterations < coloring::kMaxRounds,
                  "multidev_color exceeded kMaxRounds");
    ++result.iterations;
    prof::ExchangeRound round_stats;
    round_stats.round = result.iterations;

    // Wait for the PREVIOUS round's inbound exchange where its data is
    // first consumed: this round's cross-cut conflict scan and boundary
    // speculation both read ghost slots. The payload therefore has the
    // whole previous back half of the round — interior speculation, the
    // local conflict scan, the worklist readbacks — to fly in; the gap a
    // device still waits here is the stall the overlap failed to hide,
    // charged back to the round that scheduled the exchange.
    for (std::uint32_t k = 0; k < parts; ++k) {
      const std::uint64_t now = nodes[k].dev->timeline_cycles();
      if (xfer_in_done[k] > now) {
        const std::uint64_t stall = xfer_in_done[k] - now;
        nodes[k].exchange_stall += stall;
        if (!result.exchange_rounds.empty()) {
          prof::ExchangeRound& prev = result.exchange_rounds.back();
          prev.stall_cycles += stall;
          prev.hidden_cycles = prev.cycles > prev.stall_cycles
                                   ? prev.cycles - prev.stall_cycles
                                   : 0;
        }
        nodes[k].dev->sync_to(xfer_in_done[k]);
      }
    }
    // The consume point: everything from here on may read ghost slots
    // again, so the planned copy windows retire (the checker's view of the
    // sync_to above; a no-op when DeviceConfig::check is off).
    for (Node& node : nodes) node.dev->plan_copy_fence();
    if (opts.verify_ghosts) {
      // Every ghost slot a device may still read must now mirror its
      // owner's color (exchange soundness — the invariant the cross-cut
      // conflict scan and the deferral test rely on). Devices with no
      // remaining work are exempt: their kernels never run again, so
      // their ghost slots stop receiving updates by design.
      for (std::uint32_t p = 0; p < parts; ++p) {
        if (!live(nodes[p])) continue;
        const graph::Shard& shard = part.shards[p];
        for (vid_t gi = 0; gi < shard.num_ghosts(); ++gi) {
          const vid_t global_v = shard.ghosts[gi];
          const Node& owner = nodes[part.owner[global_v]];
          SPECKLE_CHECK(nodes[p].colors[shard.num_owned() + gi] ==
                            owner.colors[part.local_index[global_v]],
                        "ghost color out of sync after exchange");
        }
      }
      ++result.ghost_rounds_verified;
    }

    // A sharded fleet loses the single device's implicit sweep order
    // (serial racy blocks color in ascending id, which on the R-MAT graphs
    // doubles as a largest-degree-first order — their low ids are the
    // hubs). Recover the bias explicitly: order every worklist by
    // descending degree (id tiebreak) so the sweep colors hubs fleet-wide
    // before leaves, then pull the BOUNDARY vertices to the front (stable,
    // so the degree order survives within each class): the boundary slice
    // launches first and its exchange rides out while the interior slice
    // colors. Host-side and deterministic.
    std::vector<std::uint32_t> num_boundary(parts, 0);
    for (std::uint32_t k = 0; k < parts; ++k) {
      const graph::Shard& shard = part.shards[k];
      const graph::CsrGraph& local = shard.local;
      std::span<std::uint32_t> items =
          nodes[k].w_in->items().host().subspan(0, nodes[k].w_in->size());
      std::sort(items.begin(), items.end(),
                [&local](std::uint32_t a, std::uint32_t b) {
                  const vid_t da = local.degree(a);
                  const vid_t db = local.degree(b);
                  return da != db ? da > db : a < b;
                });
      const auto mid = std::stable_partition(
          items.begin(), items.end(),
          [&shard](std::uint32_t v) { return shard.is_boundary(v); });
      num_boundary[k] = static_cast<std::uint32_t>(mid - items.begin());
    }
    for (Node& node : nodes) {
      if (live(node)) ++node.rounds;
    }

    // Phase 1 — boundary speculation (Algorithm 5 lines 4-10 against the
    // local view: owned colors + ghost copies), one racy launch over the
    // boundary slice. The kernels are WARP-centric (one worklist item
    // per warp, the adjacency strided across the 32 lanes, data_warp_color
    // style): the worklists are degree-sorted and hub-heavy, and a
    // thread-centric scan would serialize a hub's whole row into one
    // lane's dependent-load chain — a single 200-degree vertex then costs
    // more than the rest of the round combined, every round it re-enters.
    //
    // Boundary vertices add a largest-degree-first deferral (the
    // Jones-Plassmann idea restricted to the cut): when v sees an
    // UNCOLORED ghost neighbor of higher static priority, that neighbor is
    // about to speculate on its own device (an uncolored ghost slot means
    // its owner is still recoloring), so coloring v now would race blind
    // across the cut. v stores kUncolored instead (resetting any stale
    // loser color, which keeps its remote ghost copies consistent), the
    // detect pass re-enqueues it, and next round it sees the winner's
    // color through the exchange. Priority is (degree, id-hash): hubs
    // color before leaves, preserving the first-fit quality of the single
    // device's hub-first sweep, and the hash tie-break decorrelates
    // same-degree chains from the partition so every device keeps a share
    // of each round's active set. Cross-device conflicts between
    // same-round speculators become impossible on ghost edges where both
    // sides are visibly uncolored; only stale-color edges remain. The
    // deferral check rides the first-fit lane scan, so each neighbor is
    // loaded once.
    const auto launch_slice = [&](std::uint32_t k, std::uint32_t begin,
                                  std::uint32_t end, bool defer,
                                  const char* name) {
      if (begin >= end) return;
      Node& node = nodes[k];
      const vid_t num_owned = part.shards[k].num_owned();
      const std::uint32_t items = end - begin;
      const std::uint32_t warps_per_block = opts.block_size / 32;
      // Three scratch words per thread: forbidden-mask lo/hi + defer flag.
      simt::LaunchConfig cfg{(items + warps_per_block - 1) / warps_per_block,
                             opts.block_size, /*regs_per_thread=*/37,
                             /*smem_bytes_per_block=*/opts.block_size * 12};
      cfg.racy_visibility = true;  // speculation feeds on st_racy races
      const std::vector<simt::Kernel> phases = {
          // Phase A: every lane strides the warp's adjacency, building a
          // partial 64-color mask and a partial defer vote in scratchpad.
          [&, begin, items, defer, num_owned, warps_per_block](simt::Thread& t) {
            const std::uint32_t widx =
                t.block() * warps_per_block + t.warp_in_block();
            const std::uint32_t slot = t.thread_in_block() * 3;
            if (widx >= items) {
              t.shared_st(slot, 0);
              t.shared_st(slot + 1, 0);
              t.shared_st(slot + 2, 0);
              return;
            }
            // All lanes load the same item/offset words: one broadcast
            // transaction per warp, as on real hardware.
            const vid_t v = t.ld(node.w_in->items(), begin + widx);
            const eid_t row_begin =
                opts.use_ldg ? t.ldg(node.dg.row, v) : t.ld(node.dg.row, v);
            const eid_t row_end = opts.use_ldg ? t.ldg(node.dg.row, v + 1)
                                               : t.ld(node.dg.row, v + 1);
            std::uint64_t pv = 0;
            if (defer) pv = opts.use_ldg ? t.ldg(node.prio, v) : t.ld(node.prio, v);
            t.compute(3);
            std::uint64_t mask = 0;
            std::uint32_t yield = 0;
            for (eid_t e = row_begin + t.lane(); e < row_end; e += 32) {
              const vid_t w =
                  opts.use_ldg ? t.ldg(node.dg.col, e) : t.ld(node.dg.col, e);
              const color_t cw = t.ld(node.colors, w);
              if (defer && w >= num_owned && cw == kUncolored) {
                const std::uint64_t pw =
                    opts.use_ldg ? t.ldg(node.prio, w) : t.ld(node.prio, w);
                t.compute(1);
                if (pw > pv) yield = 1;  // the bigger hub goes first
              }
              if (cw >= 1 && cw < 65) mask |= 1ULL << (cw - 1);
              t.compute(3);
            }
            t.shared_st(slot, static_cast<std::uint32_t>(mask));
            t.shared_st(slot + 1, static_cast<std::uint32_t>(mask >> 32));
            t.shared_st(slot + 2, yield);
          },
          // Phase B (after the block barrier): lane 0 folds the 32 partial
          // masks/votes and speculatively commits the first-fit color — or
          // kUncolored when any lane voted to defer.
          [&, begin, items, warps_per_block](simt::Thread& t) {
            if (t.lane() != 0) return;
            const std::uint32_t widx =
                t.block() * warps_per_block + t.warp_in_block();
            if (widx >= items) return;
            const vid_t v = t.ld(node.w_in->items(), begin + widx);
            std::uint64_t forbidden = 0;
            std::uint32_t yield = 0;
            const std::uint32_t warp_base = t.warp_in_block() * 32;
            for (std::uint32_t l = 0; l < 32; ++l) {
              const std::uint64_t lo = t.shared_ld((warp_base + l) * 3);
              const std::uint64_t hi = t.shared_ld((warp_base + l) * 3 + 1);
              yield |= t.shared_ld((warp_base + l) * 3 + 2);
              forbidden |= lo | (hi << 32);
            }
            t.compute(32);
            color_t c;
            if (yield != 0) {
              c = kUncolored;
            } else if (forbidden != ~0ULL) {
              color_t offset = 0;
              while (forbidden & (1ULL << offset)) ++offset;
              c = 1 + offset;
              t.compute(2);
            } else {
              const eid_t row_begin =
                  opts.use_ldg ? t.ldg(node.dg.row, v) : t.ld(node.dg.row, v);
              const eid_t row_end = opts.use_ldg ? t.ldg(node.dg.row, v + 1)
                                                 : t.ld(node.dg.row, v + 1);
              c = lane0_wide_first_fit(t, node.dg, node.colors, row_begin,
                                       row_end, opts.use_ldg);
            }
            t.st_racy(node.colors, v, c);
          },
      };
      // Declared dataflow: the boundary slice reads ghost color slots (its
      // vertices sit on the cut), while the interior slice provably stays
      // inside the owned prefix — the static half of the proof that phase 3
      // may overlap the in-flight ghost exchange (a full-extent declaration
      // there would trip the checker's kGhostTrespass rule).
      check::KernelSpec spec = coloring::graph_spec(node.dg, opts.use_ldg);
      spec.reads(node.w_in->items(), begin, end);
      if (defer) {
        if (opts.use_ldg) {
          spec.ldg(node.prio);
        } else {
          spec.reads(node.prio);
        }
      }
      if (begin >= num_boundary[k]) {
        spec.reads(node.colors, 0, num_owned);
      } else {
        spec.reads(node.colors);
      }
      spec.racy(node.colors, 0, num_owned);
      node.dev->launch_phased(cfg, node.prefix + name, spec, phases);
    };
    // Phase 0 — reset the out-lists (one fused 8-byte tail memset)
    // and resolve the PREVIOUS round's cross-cut conflicts: the boundary
    // winners parked on pend_in are re-checked against the ghost colors
    // that just landed, with the same global-id tie-break as the local
    // scan. Both endpoints of a cut edge run this test on identical data —
    // each holds the other's previous-round color by now — so exactly the
    // lower-global-id side of a conflict re-enters. Losers push straight
    // into w_out and recolor next round; their (consistent) stale colors
    // stand until then, exactly like local losers'.
    for (std::uint32_t k = 0; k < parts; ++k) {
      Node& node = nodes[k];
      if (!live(node)) {
        // Freshly-drained device: the final swap left last round's tail
        // on what is now w_out. Reset it host-side (uncharged — no
        // kernel of this device ever runs again) so ship()'s dead-peer
        // test sees the truth.
        node.w_out->clear();
        continue;
      }
      node.w_out->clear();
      node.pend_out->clear();
      node.dev->copy_to_device(2 * sizeof(std::uint32_t));
    }
    for (std::uint32_t k = 0; k < parts; ++k) {
      Node& node = nodes[k];
      const std::uint32_t count = node.pend_in->size();
      if (count == 0) continue;
      const vid_t num_owned = part.shards[k].num_owned();
      const std::uint32_t warps_per_block = opts.block_size / 32;
      const simt::LaunchConfig cfg{
          (count + warps_per_block - 1) / warps_per_block, opts.block_size,
          /*regs_per_thread=*/37,
          /*smem_bytes_per_block=*/opts.block_size * 4};
      const std::vector<simt::Kernel> phases = {
          // Phase A: lanes stride the adjacency, checking GHOST
          // neighbors only — the local half was scanned last round.
          [&, count, num_owned, warps_per_block](simt::Thread& t) {
            const std::uint32_t widx =
                t.block() * warps_per_block + t.warp_in_block();
            const std::uint32_t slot = t.thread_in_block();
            if (widx >= count) {
              t.shared_st(slot, 0);
              return;
            }
            const vid_t v = t.ld(node.pend_in->items(), widx);
            const color_t cv = t.ld(node.colors, v);
            const eid_t row_begin =
                opts.use_ldg ? t.ldg(node.dg.row, v) : t.ld(node.dg.row, v);
            const eid_t row_end = opts.use_ldg ? t.ldg(node.dg.row, v + 1)
                                               : t.ld(node.dg.row, v + 1);
            const vid_t global_v =
                opts.use_ldg ? t.ldg(node.l2g, v) : t.ld(node.l2g, v);
            t.compute(3);
            std::uint32_t conflict = 0;
            for (eid_t e = row_begin + t.lane(); e < row_end; e += 32) {
              const vid_t w =
                  opts.use_ldg ? t.ldg(node.dg.col, e) : t.ld(node.dg.col, e);
              t.compute(2);
              if (w < num_owned) continue;  // ghost neighbors only
              const color_t cw = t.ld(node.colors, w);
              t.compute(1);
              if (cw != cv) continue;
              const vid_t global_w =
                  opts.use_ldg ? t.ldg(node.l2g, w) : t.ld(node.l2g, w);
              t.compute(1);
              if (global_v < global_w) conflict = 1;
            }
            t.shared_st(slot, conflict);
          },
          // Phase B: lane 0 folds the votes and pushes the loser.
          [&, count, warps_per_block](simt::Thread& t) {
            if (t.lane() != 0) return;
            const std::uint32_t widx =
                t.block() * warps_per_block + t.warp_in_block();
            if (widx >= count) return;
            std::uint32_t reenter = 0;
            const std::uint32_t warp_base = t.warp_in_block() * 32;
            for (std::uint32_t l = 0; l < 32; ++l) {
              reenter |= t.shared_ld(warp_base + l);
            }
            t.compute(32);
            if (reenter == 0) return;
            const vid_t v = t.ld(node.pend_in->items(), widx);
            if (opts.scan_push) {
              t.scan_push(*node.w_out, v);
            } else {
              const std::uint32_t slot =
                  t.atomic_add(node.w_out->tail(), 0, 1U);
              t.st(node.w_out->items(), slot, v);
            }
          },
      };
      // Reads ghost slots, legally: the cross-cut scan runs after the
      // consume-point fence, so no copy window is open over colors here.
      check::KernelSpec spec = coloring::graph_spec(node.dg, opts.use_ldg);
      spec.reads(node.pend_in->items(), 0, count);
      spec.reads(node.colors);
      if (opts.use_ldg) {
        spec.ldg(node.l2g);
      } else {
        spec.reads(node.l2g);
      }
      spec.pushes(*node.w_out, count);
      node.dev->launch_phased(cfg, node.prefix + "md_xdetect", spec, phases);
    }

    const bool defer_this_round = result.iterations <= opts.defer_rounds;
    for (std::uint32_t k = 0; k < parts; ++k) {
      launch_slice(k, 0, num_boundary[k], defer_this_round, "md_color_bnd");
    }

    // Phase 2 — ghost exchange, folded host-side in (source device,
    // worklist position) order and scheduled as ONE coalesced async payload
    // per peer link. The fold happens "early" relative to the modeled
    // arrival, which is sound: the kernels that run before the receivers
    // wait on xfer_in_done are the interior launches (no ghost neighbors
    // to read) and the LOCAL conflict scan (skips ghost neighbors by
    // construction) — nothing consumes a ghost slot until next round.
    // The fold also models payload STAGING: the records are packed into
    // per-link staging buffers at ship time, so the outbound DMA never
    // reads live color memory and the sender's next round needn't wait
    // for its own outbound transfers to drain.
    for (std::uint32_t k = 0; k < parts; ++k) {
      const auto items = nodes[k].w_in->host_items();
      for (std::uint32_t idx = 0; idx < num_boundary[k]; ++idx) {
        const std::uint32_t v = items[idx];
        if (subscribers[k][v].empty()) continue;
        ship(k, v, nodes[k].colors[v]);
      }
    }
    schedule_links(round_stats);

    // Phase 3 — interior speculation, overlapping the in-flight exchange.
    for (std::uint32_t k = 0; k < parts; ++k) {
      launch_slice(k, num_boundary[k], nodes[k].w_in->size(), false,
                   "md_color_int");
    }

    // Phase 4 — LOCAL conflict detection, still overlapping the in-flight
    // exchange: the scan covers OWNED neighbors only (ghost edges
    // are judged by next round's cross-cut scan, once the payload has
    // landed), so running it before the exchange arrives is sound — and
    // the exchange gains the detect kernel and the worklist readbacks as
    // flight time on top of the interior launch. Losers (a same-colored
    // owned neighbor with a larger global id, or a deferred vertex) compact
    // into w_out behind the cross-cut losers already there; boundary
    // winners park on pend_out for next round's cross check. The global-id
    // tie-break matches the cross scan's, so the two halves of the split
    // agree on who recolors.
    for (std::uint32_t k = 0; k < parts; ++k) {
      Node& node = nodes[k];
      const std::uint32_t count = node.w_in->size();
      const bool pend_live = !node.pend_in->empty();
      if (count == 0 && !pend_live) continue;
      if (count > 0) {
        const vid_t num_owned = part.shards[k].num_owned();
        const std::uint32_t nb = num_boundary[k];
        const std::uint32_t warps_per_block = opts.block_size / 32;
        const simt::LaunchConfig cfg{
            (count + warps_per_block - 1) / warps_per_block, opts.block_size,
            /*regs_per_thread=*/37,
            /*smem_bytes_per_block=*/opts.block_size * 4};
        const std::vector<simt::Kernel> phases = {
            // Phase A: lanes stride the adjacency over OWNED neighbors;
            // each leaves a partial re-enter vote (conflict seen, or the
            // vertex deferred) in its scratchpad word.
            [&, count, num_owned, warps_per_block](simt::Thread& t) {
              const std::uint32_t widx =
                  t.block() * warps_per_block + t.warp_in_block();
              const std::uint32_t slot = t.thread_in_block();
              if (widx >= count) {
                t.shared_st(slot, 0);
                return;
              }
              const vid_t v = t.ld(node.w_in->items(), widx);
              const color_t cv = t.ld(node.colors, v);
              t.compute(2);
              if (cv == kUncolored) {  // deferred: re-enter, nothing to scan
                t.shared_st(slot, 1);
                return;
              }
              const eid_t row_begin =
                  opts.use_ldg ? t.ldg(node.dg.row, v) : t.ld(node.dg.row, v);
              const eid_t row_end = opts.use_ldg ? t.ldg(node.dg.row, v + 1)
                                                 : t.ld(node.dg.row, v + 1);
              const vid_t global_v =
                  opts.use_ldg ? t.ldg(node.l2g, v) : t.ld(node.l2g, v);
              t.compute(2);
              std::uint32_t conflict = 0;
              for (eid_t e = row_begin + t.lane(); e < row_end; e += 32) {
                const vid_t w =
                    opts.use_ldg ? t.ldg(node.dg.col, e) : t.ld(node.dg.col, e);
                t.compute(2);
                if (w >= num_owned) continue;  // ghosts: cross-cut scan's job
                const color_t cw = t.ld(node.colors, w);
                t.compute(1);
                if (cw != cv) continue;
                const vid_t global_w =
                    opts.use_ldg ? t.ldg(node.l2g, w) : t.ld(node.l2g, w);
                t.compute(1);
                if (global_v < global_w) conflict = 1;
              }
              t.shared_st(slot, conflict);
            },
            // Phase B: lane 0 folds the votes; losers re-enter w_out,
            // boundary survivors park on pend_out for the cross check.
            [&, count, nb, warps_per_block](simt::Thread& t) {
              if (t.lane() != 0) return;
              const std::uint32_t widx =
                  t.block() * warps_per_block + t.warp_in_block();
              if (widx >= count) return;
              std::uint32_t reenter = 0;
              const std::uint32_t warp_base = t.warp_in_block() * 32;
              for (std::uint32_t l = 0; l < 32; ++l) {
                reenter |= t.shared_ld(warp_base + l);
              }
              t.compute(32);
              if (reenter == 0 && widx >= nb) return;  // interior winner
              const vid_t v = t.ld(node.w_in->items(), widx);
              simt::Worklist& dst = reenter != 0 ? *node.w_out : *node.pend_out;
              if (opts.scan_push) {
                t.scan_push(dst, v);
              } else {
                const std::uint32_t slot = t.atomic_add(dst.tail(), 0, 1U);
                t.st(dst.items(), slot, v);
              }
            },
        };
        // Owned-prefix declarations only: the local scan skips ghost
        // neighbors by construction, which is exactly what lets it run
        // while the exchange is in flight — and what the checker verifies
        // against the open copy window.
        check::KernelSpec spec = coloring::graph_spec(node.dg, opts.use_ldg);
        spec.reads(node.w_in->items(), 0, count);
        spec.reads(node.colors, 0, num_owned);
        if (opts.use_ldg) {
          spec.ldg(node.l2g);
        } else {
          spec.reads(node.l2g, 0, num_owned);
        }
        spec.pushes(*node.w_out, count).pushes(*node.pend_out, nb);
        node.dev->launch_phased(cfg, node.prefix + "md_detect", spec, phases);
        // Read back both out tails: the loser list and the pending list.
        node.dev->copy_to_host(2 * sizeof(std::uint32_t));
      } else {
        // Only the cross-cut scan ran here: read back its loser tail.
        node.dev->copy_to_host(sizeof(std::uint32_t));
      }
      std::swap(node.w_in, node.w_out);
      std::swap(node.pend_in, node.pend_out);
    }

    // Round barrier: next round's speculation starts in lockstep on the
    // slowest device's timeline. There is no retraction batch: a conflict
    // loser keeps its color both locally AND in its remote ghost copies
    // (the two views stay consistent, which the detect tie-break relies
    // on) until it reships from the next round's speculation — a deferring
    // loser resets to kUncolored and the delta exchange carries exactly
    // the copies that changed. One coalesced exchange per round, total.
    // The barrier covers COMPUTE only: the payload was staged at ship
    // time, so an outbound DMA still draining never reads live color
    // memory, and the inbound side is gated where it is consumed — the
    // xfer_in_done wait at the top of the next round.
    std::uint64_t barrier = 0;
    for (std::uint32_t k = 0; k < parts; ++k) {
      barrier = std::max(barrier, nodes[k].dev->timeline_cycles());
    }
    for (Node& node : nodes) {
      node.dev->sync_to(barrier);
    }
    round_stats.hidden_cycles =
        round_stats.cycles > round_stats.stall_cycles
            ? round_stats.cycles - round_stats.stall_cycles
            : 0;
    result.exchange_rounds.push_back(round_stats);
  }

  // --- gather ---------------------------------------------------------------
  result.coloring.assign(g.num_vertices(), kUncolored);
  for (std::uint32_t k = 0; k < parts; ++k) {
    const graph::Shard& shard = part.shards[k];
    std::span<const std::uint32_t> colors =
        std::as_const(nodes[k].colors).host();
    for (vid_t i = 0; i < shard.num_owned(); ++i) {
      result.coloring[shard.owned[i]] = colors[i];
    }
  }
  result.num_colors = coloring::count_colors(result.coloring);

  result.devices.reserve(parts);
  std::uint64_t makespan = 0;
  for (std::uint32_t k = 0; k < parts; ++k) {
    Node& node = nodes[k];
    const graph::Shard& shard = part.shards[k];
    DeviceBreakdown breakdown;
    breakdown.device = k;
    breakdown.owned = shard.num_owned();
    breakdown.ghosts = shard.num_ghosts();
    breakdown.boundary = shard.num_boundary;
    breakdown.cut_edges = shard.cut_edges;
    breakdown.rounds = node.rounds;
    breakdown.sent_colors = node.sent_colors;
    breakdown.recv_colors = node.recv_colors;
    breakdown.exchange_busy_cycles = node.exchange_busy;
    breakdown.exchange_stall_cycles = node.exchange_stall;
    breakdown.exchange_hidden_cycles =
        node.exchange_busy > node.exchange_stall
            ? node.exchange_busy - node.exchange_stall
            : 0;
    breakdown.report = node.dev->report();
    breakdown.san = node.dev->san_report();
    breakdown.prof = node.dev->prof_report();
    breakdown.check = node.dev->check_report();
    makespan = std::max(makespan, breakdown.report.total_cycles);

    // Fleet views: kernels concatenate in device order (names carry the
    // "d<k>." prefix), transfers sum, san/prof findings append.
    for (const simt::KernelStats& ks : breakdown.report.kernels) {
      result.report.kernels.push_back(ks);
    }
    const auto add_transfers = [](simt::TransferStats& into,
                                  const simt::TransferStats& from) {
      into.bytes += from.bytes;
      into.cycles += from.cycles;
      into.count += from.count;
    };
    add_transfers(result.report.h2d, breakdown.report.h2d);
    add_transfers(result.report.d2h, breakdown.report.d2h);
    add_transfers(result.report.d2d, breakdown.report.d2d);
    result.san.total += breakdown.san.total;
    for (const san::Finding& f : breakdown.san.findings) {
      result.san.findings.push_back(f);
    }
    for (const prof::LaunchProfile& lp : breakdown.prof.launches) {
      result.prof.launches.push_back(lp);
    }
    for (const prof::Transfer& tr : breakdown.prof.transfers) {
      result.prof.transfers.push_back(tr);
    }
    result.check.merge(breakdown.check);
    result.devices.push_back(std::move(breakdown));
  }
  // All timelines meet at the final barrier, so any device's total IS the
  // fleet makespan; take the max anyway for clarity.
  result.report.total_cycles = makespan;
  result.model_ms = opts.device.cycles_to_ms(makespan);
  std::uint64_t hidden_total = 0;
  for (const prof::ExchangeRound& er : result.exchange_rounds) {
    hidden_total += er.hidden_cycles;
  }
  result.hidden_ms = opts.device.cycles_to_ms(hidden_total);
  if (opts.device.profile) {
    result.prof.exchange_rounds = result.exchange_rounds;
  }
  result.wall_ms = wall.milliseconds();
  return result;
}

}  // namespace speckle::multidev
