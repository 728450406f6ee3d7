#pragma once
/// \file build_parallel.hpp
/// Streaming parallel edge-shards-to-CSR construction.
///
/// The serial builder (builder.hpp) sorts the whole edge list — O(m log m)
/// on one core — which dominates wall time once graphs reach the 10^8-edge
/// tier. This builder takes the edges already split into shards (the unit
/// the sharded generators in genspec.hpp emit), and assembles the CSR with
/// a counting sort:
///
///   1. count    — parallel over shards: per-vertex degree tallies via
///                 relaxed atomic increments (commutative, so the totals do
///                 not depend on the schedule)
///   2. offsets  — serial exclusive prefix sum (O(n), never the bottleneck)
///   3. fill     — parallel over shards: each edge claims a slot in its row
///                 with fetch_add and writes its column index
///   4. canon    — parallel over vertex ranges: sort and deduplicate each
///                 adjacency list
///   5. compact  — parallel over vertex ranges: move the deduplicated rows
///                 to their final offsets
///
/// Step 3's intra-row order is schedule-dependent, but step 4 erases it:
/// the final arrays depend only on the per-row edge multisets, so the
/// output is BIT-IDENTICAL to the serial build_csr for the same
/// concatenated input at every thread count. The fuzz suite asserts this
/// byte-for-byte (tests/fuzz_test.cpp).

#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "support/threadpool.hpp"

namespace speckle::graph {

/// Build a CSR graph from edge shards. Equivalent to
/// `build_csr(num_vertices, concat(shards))` — same cleanup
/// (symmetrization, self-loop removal, dedup, sorted adjacency), same
/// bytes — but counting-sort based and parallel over `pool`. Shards may be
/// empty and may hold duplicate or self-loop edges; endpoints >=
/// num_vertices abort. Deterministic at any pool concurrency.
CsrGraph build_csr_parallel(vid_t num_vertices,
                            const std::vector<EdgeList>& shards,
                            support::ThreadPool& pool);

}  // namespace speckle::graph
