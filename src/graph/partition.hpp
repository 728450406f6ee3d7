#pragma once
/// \file partition.hpp
/// Vertex partitioning of a CSR graph into P shards for the multi-device
/// runner (`speckle::multidev`). Each shard re-labels its vertices into a
/// compact local id space:
///
///   * owned vertices  — local ids [0, num_owned), ascending global order;
///   * ghost vertices  — local ids [num_owned, num_local): read-only copies
///     of cross-partition neighbors, ascending global order. Ghost rows in
///     the shard-local CSR are empty (a device never iterates a ghost's
///     adjacency; it only reads the ghost's color).
///
/// Two partitioners:
///   * contiguous — part k owns the global id range [k*n/P, (k+1)*n/P);
///     preserves generator locality, minimal cut on banded/stencil graphs;
///   * bfs        — edge-cut-aware BFS-grown blocks: vertices are visited
///     in multi-source BFS order (restarting from the lowest unvisited id,
///     so disconnected graphs work) and assigned to parts along that order,
///     each part's share balanced by DEGREE (edge weight) rather than
///     vertex count. BFS order keeps each block a connected, locally dense
///     region, which shrinks the cut — and with it ghost traffic — on
///     graphs whose id order carries no locality (the R-MAT suite members);
///     degree balancing keeps skewed shards from serializing the fleet.
///
/// Both are deterministic functions of (graph, P).
///
/// Each shard also classifies its owned vertices into **boundary** (at
/// least one cross-partition neighbor, i.e. at least one ghost in its
/// adjacency) and **interior** (owned neighbors only). The multi-device
/// runner colors the boundary set first and ships its colors while the
/// interior set is still being colored — interior vertices are never
/// exchanged, so the classification is what makes the overlap sound.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace speckle::graph {

enum class PartitionKind {
  kContiguous,
  kBfsBlocks,
};

const char* partition_kind_name(PartitionKind kind);
/// Lookup by partition_kind_name() ("contiguous" / "bfs"); nullopt on an
/// unknown name.
std::optional<PartitionKind> find_partition_kind(const std::string& name);

/// One device's slice of the graph.
struct Shard {
  std::vector<vid_t> owned;   ///< global ids, ascending; local ids [0, |owned|)
  std::vector<vid_t> ghosts;  ///< global ids, ascending; local ids follow owned
  /// Shard-local CSR: adjacency of every owned vertex in local ids (owned
  /// and ghost neighbors alike); ghost rows are empty. Constructed directly
  /// (ghost rows make it asymmetric by design, so it never goes through the
  /// symmetrizing builder).
  CsrGraph local;
  /// Directed CSR entries from an owned vertex to a ghost (this shard's
  /// side of the edge cut).
  std::uint64_t cut_edges = 0;
  /// Per owned vertex (indexed by local id): 1 iff the vertex has at least
  /// one ghost neighbor — the endpoint of a cut edge. Boundary vertices are
  /// the only ones whose colors ever cross the interconnect.
  std::vector<std::uint8_t> boundary_flag;
  vid_t num_boundary = 0;  ///< count of set boundary_flag entries

  vid_t num_owned() const { return static_cast<vid_t>(owned.size()); }
  vid_t num_ghosts() const { return static_cast<vid_t>(ghosts.size()); }
  vid_t num_local() const { return num_owned() + num_ghosts(); }
  bool is_boundary(vid_t local) const { return boundary_flag[local] != 0; }
};

struct Partition {
  PartitionKind kind = PartitionKind::kContiguous;
  std::uint32_t num_parts = 1;
  std::vector<std::uint32_t> owner;  ///< size n: owning part of each vertex
  /// Size n: the vertex's local id on its owner shard (always < num_owned
  /// of that shard; ghost slots are not recorded here).
  std::vector<vid_t> local_index;
  std::vector<Shard> shards;         ///< num_parts entries (possibly empty shards)
  std::uint64_t cut_edges = 0;       ///< directed, summed over shards

  /// Structural self-check (owner/local_index/shard cross-consistency and
  /// the local CSR against the global one). O(n + m). Aborts on violation —
  /// used by tests and the fuzz harness, cheap enough to keep on.
  void validate(const CsrGraph& g) const;
};

/// Partition `g` into `parts` shards. Deterministic for a given
/// (graph, parts, kind).
Partition make_partition(const CsrGraph& g, std::uint32_t parts,
                         PartitionKind kind);

}  // namespace speckle::graph
