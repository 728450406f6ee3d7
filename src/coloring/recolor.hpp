#pragma once
/// \file recolor.hpp
/// Incremental recoloring: re-run the data-driven speculate/resolve loop
/// (Algorithm 5) seeded with only a *dirty region* of an existing proper
/// coloring, instead of the whole vertex set.
///
/// This is the algorithmic core of speckle::serve — after an edge-mutation
/// batch the coloring is proper everywhere except at the endpoints of the
/// newly conflicting edges, and Rokos et al.'s speculation-iterate analysis
/// (PAPERS.md) says the resolve phase converges in a handful of rounds when
/// the invalidated set is small. Seeding the worklist with the dirty set
/// makes the cost proportional to the conflict region, not the graph.
///
/// The loop itself is the exact one data_color() runs — factored here
/// (speculate_resolve) so the batch scheme and the incremental entry point
/// share one implementation; only the initial worklist and color state
/// differ. The dirty-set contract: the coloring restricted to vertices
/// OUTSIDE `dirty` must be proper among themselves (clean vertices are
/// never re-examined; only same-round speculation conflicts are detected,
/// the same work-efficiency argument as DESIGN.md §6).

#include <span>
#include <vector>

#include "coloring/data.hpp"
#include "coloring/gpu_common.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "simt/worklist.hpp"

namespace speckle::coloring {

/// The Algorithm-5 speculate/resolve loop, from whatever worklist state
/// `w_in` currently holds down to an empty worklist. Returns the number of
/// iterations run (added to `iterations_in`, which the kMaxRounds guard
/// compares against). Shared verbatim by data_color() and recolor_region():
/// the kernel names, launch configs and transfer charges are identical, so
/// the full-graph path's simulated results stay bit-identical.
std::uint32_t speculate_resolve(simt::Device& dev, const DeviceGraph& dg,
                                simt::Buffer<std::uint32_t>& colors,
                                simt::Worklist& list_a, simt::Worklist& list_b,
                                const DataOptions& opts,
                                std::uint32_t iterations_in = 0);

/// Dirty fraction (|dirty| / n) above which the incremental path stops
/// paying off and recolor_region falls back to a full from-scratch run
/// (all colors reset, worklist = V). See docs/serve.md.
inline constexpr double kFullRecolorFraction = 0.10;

/// recolor_region runs data_color's loop, so it takes data_color's options.
using RecolorOptions = DataOptions;

struct RecolorResult {
  Coloring coloring;
  color_t num_colors = 0;
  std::uint32_t iterations = 0;   ///< resolve rounds run (0 for empty dirty)
  bool full = false;              ///< fell back to from-scratch recoloring
  double model_ms = 0.0;          ///< simulated device time (deterministic)
  double wall_ms = 0.0;           ///< host wall clock
};

/// Recolor `base` after invalidating `dirty`. `base` must be proper when
/// restricted to the complement of `dirty` (dirty vertices may carry stale
/// or conflicting colors — they are speculatively re-colored from scratch).
/// Duplicate or out-of-range dirty ids abort. The result is always a
/// proper coloring of `g`; with an empty dirty set it is `base` itself.
RecolorResult recolor_region(const graph::CsrGraph& g, const Coloring& base,
                             std::span<const graph::vid_t> dirty,
                             const RecolorOptions& opts = {});

/// The dirty set an edge-mutation batch invalidates: for every inserted
/// edge whose endpoints currently share a color, the endpoint the conflict
/// rule would re-color (the lower id — device_conflict's convention).
/// Sorted ascending, deduplicated. Deletions never invalidate anything.
std::vector<graph::vid_t> dirty_from_inserts(
    const Coloring& coloring, std::span<const graph::Edge> inserted);

}  // namespace speckle::coloring
