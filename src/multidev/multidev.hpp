#pragma once
/// \file multidev.hpp
/// Multi-device partitioned speculative-greedy coloring (`speckle::multidev`):
/// shard the CSR graph over P simulated GPUs and run the paper's data-driven
/// SGR rounds on every shard in lockstep, with a boundary-exchange step
/// between the speculative-color and conflict-detect kernels of each round.
///
/// The scheme is the distributed extension of Algorithm 5 (the recipe of
/// Boman et al. and of "Parallel Graph Coloring Algorithms for Distributed
/// GPU Environments", arXiv:2107.00075), with communication hidden behind
/// computation the way those papers prescribe: the round's single
/// coalesced ghost exchange is scheduled right after boundary speculation
/// and nothing consumes it until the NEXT round, so it has the entire
/// back half of the round to fly. Each lockstep round runs:
///
///   0. cross-cut conflict scan: last round's boundary winners,
///      parked on a pending list, are re-checked against the ghost colors
///      that just landed — ghost edges ONLY, with the global-id tie-break
///      (the lower global id loses and re-enters its owner's worklist).
///      Both endpoints of a cut edge judge the identical exchanged data,
///      so exactly one side recolors. This is the only ghost consumer, so
///      it is where a device waits (Device::sync_to) for its inbound
///      payload — the gap it actually waits is the stall the overlap
///      failed to hide;
///   1. boundary speculation: every device first-fit colors the BOUNDARY
///      slice of its worklist (owned vertices with a cross-partition
///      neighbor, pulled to the front of a degree-sorted sweep) against
///      its local view (owned colors + ghost copies). Optionally the
///      first `defer_rounds` rounds yield to higher-priority uncolored
///      ghost neighbors (hub-first deferral, see MultiDevOptions);
///   2. ghost exchange: the fresh boundary colors are folded into ONE
///      delta payload per peer link (only changed ghost copies ship,
///      dead peers are skipped) and STAGED — packed into per-link payload
///      buffers, so the DMA never reads live color memory — then shipped
///      as asynchronous peer D2D transfers (Device::copy_peer_async).
///      Each device has two copy engines (one per direction, as on the
///      K20c): a link occupies the source's OUT and destination's IN
///      engine, transfers serialize per engine in (src, dst) order;
///   3. interior speculation, overlapping the in-flight exchange —
///      interior vertices have no ghost neighbors, so the overlap is
///      sound by construction;
///   4. LOCAL conflict scan over the worklist: owned neighbors only
///      (ghost edges are phase 0's job next round), same global-id
///      tie-break. Losers and deferred vertices compact into the owner's
///      out-worklist; boundary survivors park on the pending list for
///      phase 0. Running it before the payload lands keeps the exchange
///      entirely off the critical path — a round's compute therefore
///      costs max(boundary + interior + local detect, exchange), and the
///      round barrier (lockstep) covers compute only.
///
/// There is no retraction traffic: a conflict loser keeps its stale color
/// locally AND in its remote ghost copies (the two views stay consistent,
/// which the tie-break relies on) until its recolor ships next round.
/// The kernels are WARP-centric (one worklist item per warp, the adjacency
/// strided across lanes, data_warp_color style): the worklists are
/// degree-sorted and hub-heavy, and a thread-centric scan would serialize
/// each hub row into one lane's dependent-load chain.
///
/// Every P runs this one pipeline. P=1 is one shard with an empty
/// boundary: no exchange ever ships, and the result is a proper coloring
/// but not D-ldg's — the single-device scheme is coloring::data_color,
/// which run_scheme uses whenever num_devices == 1.
///
/// Determinism: devices execute their kernels one after another on the
/// host, exchanges are folded in (source device, worklist position) order,
/// link transfers are scheduled in (src, dst) order, and device timelines
/// are aligned to the slowest device at each round barrier — so colors,
/// rounds, per-device reports and the fleet makespan are bit-identical at
/// every DeviceConfig::host_threads value, and with P devices the result
/// depends only on (graph, partition, options). Each shard gets its own
/// Device, so `speckle::san` findings and `speckle::prof` counters are
/// attributed per device via the "d<k>." buffer/kernel name prefixes.

#include <cstdint>
#include <vector>

#include "coloring/coloring.hpp"
#include "coloring/gpu_common.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "prof/prof.hpp"
#include "simt/check.hpp"
#include "simt/config.hpp"
#include "simt/san.hpp"
#include "simt/stats.hpp"

namespace speckle::multidev {

struct MultiDevOptions {
  std::uint32_t num_devices = 1;
  graph::PartitionKind partitioner = graph::PartitionKind::kContiguous;
  std::uint32_t block_size = 128;
  bool use_ldg = false;     ///< route topology (and l2g) reads via the RO cache
  bool scan_push = true;    ///< prefix-sum worklist push (false: per-item atomics)
  /// Boundary deferral window (opt-in quality knob): during the first
  /// `defer_rounds` rounds a boundary vertex yields to any
  /// higher-priority UNCOLORED ghost neighbor (hub-first,
  /// Jones-Plassmann style), which eliminates cross-device conflicts
  /// while the graph is dense with uncolored vertices. Each deferral
  /// round shaves a color or two off the skewed graphs but adds 1-2
  /// lockstep rounds of latency; with the split conflict scan the blind
  /// default already lands within ~9% of the single-device color count,
  /// so the window default is 0 and callers chasing the last colors turn
  /// it up (3 recovers the single-device count on rmat-g at P=4).
  std::uint32_t defer_rounds = 0;
  std::uint64_t seed = 0x5eed;  ///< salt of the deferral-priority id hash
  /// Per-device machine model; every device in the fleet is identical.
  simt::DeviceConfig device = simt::DeviceConfig::k20c();
  /// Host-side invariant check after every exchange: each ghost slot must
  /// equal its owner's current color. O(total ghosts) per round; used by
  /// the fuzz/property tests, off in production runs.
  bool verify_ghosts = false;
};

/// One device's share of a multi-device run.
struct DeviceBreakdown {
  std::uint32_t device = 0;
  graph::vid_t owned = 0;
  graph::vid_t ghosts = 0;
  graph::vid_t boundary = 0;        ///< owned vertices with a ghost neighbor
  std::uint64_t cut_edges = 0;      ///< owned→ghost CSR entries on this shard
  std::uint32_t rounds = 0;         ///< rounds this device had live work
  std::uint64_t sent_colors = 0;    ///< boundary colors shipped to peers
  std::uint64_t recv_colors = 0;    ///< ghost updates received from peers
  /// Overlap accounting: DMA-engine-busy cycles of this device's link
  /// transfers, the portion its SM timeline actually waited for
  /// (sync_to gaps), and the remainder the interior overlap hid.
  std::uint64_t exchange_busy_cycles = 0;
  std::uint64_t exchange_stall_cycles = 0;
  std::uint64_t exchange_hidden_cycles = 0;
  simt::DeviceReport report;        ///< kernels, transfers, timeline
  san::Report san;                  ///< per-device sanitizer findings
  prof::Report prof;                ///< per-device profile (when enabled)
  check::Report check;              ///< per-device launch-plan checker output
};

/// The inherited GpuResult fields hold the fleet view: `coloring` in global
/// vertex order, `iterations` = global lockstep rounds, `model_ms` = fleet
/// makespan (all timelines align at barriers), `wall_ms` = host wall clock
/// of the whole simulation. `report` concatenates every device's kernel log
/// in device order (kernel names carry the "d<k>." prefix), sums the
/// transfer totals and sets total_cycles to the makespan; `san` findings
/// and `prof` launches/transfers append in device order; `check` reports
/// merge in device order (launch plans concatenate).
struct MultiDevResult : coloring::GpuResult {
  std::uint64_t cut_edges = 0;      ///< directed cut of the partition
  std::uint64_t exchanged_colors = 0;  ///< total ghost updates shipped
  std::uint32_t ghost_rounds_verified = 0;  ///< verify_ghosts passes run
  /// Per-round exchange batches (count, bytes, hidden/stall cycles), in
  /// round order; also copied into `prof.exchange_rounds` when profiling so
  /// the JSON export carries it. All-zero batches at P=1.
  std::vector<prof::ExchangeRound> exchange_rounds;
  double hidden_ms = 0.0;  ///< exchange cycles the overlap hid, fleet total
  std::vector<DeviceBreakdown> devices;  ///< one entry per device, in order
};

/// Color `g` on `opts.num_devices` simulated devices. Aborts on option
/// misuse (seed 0, zero devices, a block that is not a warp multiple); the
/// caller verifies the coloring (the runner does, and the tests use the
/// shared oracle).
MultiDevResult multidev_color(const graph::CsrGraph& g, const MultiDevOptions& opts);

}  // namespace speckle::multidev
