#include "graph/partition.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace speckle::graph {

const char* partition_kind_name(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kContiguous: return "contiguous";
    case PartitionKind::kBfsBlocks: return "bfs";
  }
  return "?";
}

std::optional<PartitionKind> find_partition_kind(const std::string& name) {
  for (PartitionKind kind : {PartitionKind::kContiguous, PartitionKind::kBfsBlocks}) {
    if (name == partition_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

/// Owner assignment for kBfsBlocks: walk the graph in multi-source BFS
/// order (sources are the lowest-id unvisited vertices, so every component
/// is covered and the order is deterministic) and cut the walk into P
/// consecutive blocks balanced by degree+1. Each block is a union of BFS
/// frontiers — a connected, locally dense region — so far fewer edges
/// cross blocks than under raw id order when ids carry no locality, while
/// the degree weighting keeps the per-shard edge work even on skewed
/// graphs (a hub counts for its whole adjacency, not one vertex).
std::vector<std::uint32_t> bfs_block_owners(const CsrGraph& g,
                                            std::uint32_t parts) {
  const vid_t n = g.num_vertices();
  std::vector<std::uint32_t> owner(n, 0);
  // Total weight = sum(degree+1) = m + n; the +1 keeps zero-degree
  // vertices from collapsing into one shard.
  const std::uint64_t total_weight =
      static_cast<std::uint64_t>(g.num_edges()) + n;
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<vid_t> queue;
  queue.reserve(n);
  std::size_t head = 0;
  std::uint64_t consumed = 0;  // weight of vertices already assigned
  vid_t next_source = 0;
  for (vid_t assigned = 0; assigned < n; ++assigned) {
    if (head == queue.size()) {  // component exhausted: restart
      while (visited[next_source] != 0) ++next_source;
      visited[next_source] = 1;
      queue.push_back(next_source);
    }
    const vid_t v = queue[head++];
    // Part k takes the weight range [k*W/P, (k+1)*W/P): assign by the
    // midpoint of this vertex's weight interval so a hub straddling an
    // edge lands in exactly one part and every part stays nonempty on
    // weight-balanced inputs.
    const std::uint64_t w = static_cast<std::uint64_t>(g.degree(v)) + 1;
    const std::uint32_t k = static_cast<std::uint32_t>(
        std::min<std::uint64_t>((consumed * 2 + w) * parts / (total_weight * 2),
                                parts - 1));
    owner[v] = k;
    consumed += w;
    for (const vid_t u : g.neighbors(v)) {
      if (visited[u] == 0) {
        visited[u] = 1;
        queue.push_back(u);
      }
    }
  }
  return owner;
}

}  // namespace

Partition make_partition(const CsrGraph& g, std::uint32_t parts,
                         PartitionKind kind) {
  SPECKLE_CHECK(parts >= 1, "partition needs at least one part");
  const vid_t n = g.num_vertices();
  Partition p;
  p.kind = kind;
  p.num_parts = parts;
  p.owner.resize(n);
  p.local_index.assign(n, kInvalidVertex);
  p.shards.resize(parts);

  if (kind == PartitionKind::kBfsBlocks && n > 0) {
    p.owner = bfs_block_owners(g, parts);
  }
  for (vid_t v = 0; v < n; ++v) {
    const std::uint32_t k =
        kind == PartitionKind::kBfsBlocks
            ? p.owner[v]
            : static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) * parts / n);
    p.owner[v] = k;
    p.local_index[v] = static_cast<vid_t>(p.shards[k].owned.size());
    p.shards[k].owned.push_back(v);  // ascending: v iterates in global order
  }

  // Ghost discovery + local CSR per shard. `g2l` maps global ids to the
  // current shard's local ids; only the entries a shard touches are set and
  // they are reset before the next shard reuses the array.
  std::vector<vid_t> g2l(n, kInvalidVertex);
  for (std::uint32_t k = 0; k < parts; ++k) {
    Shard& s = p.shards[k];
    for (const vid_t v : s.owned) {
      for (const vid_t w : g.neighbors(v)) {
        if (p.owner[w] != k && g2l[w] == kInvalidVertex) {
          g2l[w] = 0;  // mark; slot assigned after the sort below
          s.ghosts.push_back(w);
        }
      }
    }
    std::sort(s.ghosts.begin(), s.ghosts.end());
    for (const vid_t v : s.owned) g2l[v] = p.local_index[v];
    for (std::size_t j = 0; j < s.ghosts.size(); ++j) {
      g2l[s.ghosts[j]] = s.num_owned() + static_cast<vid_t>(j);
    }

    std::vector<eid_t> row(static_cast<std::size_t>(s.num_local()) + 1, 0);
    std::vector<vid_t> col;
    s.boundary_flag.assign(s.num_owned(), 0);
    for (vid_t i = 0; i < s.num_owned(); ++i) {
      for (const vid_t w : g.neighbors(s.owned[i])) {
        col.push_back(g2l[w]);
        if (p.owner[w] != k) {
          ++s.cut_edges;
          s.boundary_flag[i] = 1;
        }
      }
      row[i + 1] = static_cast<eid_t>(col.size());
    }
    for (const std::uint8_t f : s.boundary_flag) s.num_boundary += f;
    // Ghost rows are empty: repeat the final offset.
    for (vid_t i = s.num_owned(); i < s.num_local(); ++i) row[i + 1] = row[i];
    s.local = CsrGraph(std::move(row), std::move(col));
    p.cut_edges += s.cut_edges;

    for (const vid_t v : s.owned) g2l[v] = kInvalidVertex;
    for (const vid_t w : s.ghosts) g2l[w] = kInvalidVertex;
  }
  return p;
}

void Partition::validate(const CsrGraph& g) const {
  const vid_t n = g.num_vertices();
  SPECKLE_CHECK(owner.size() == n && local_index.size() == n,
                "partition arrays must cover every vertex");
  SPECKLE_CHECK(shards.size() == num_parts, "one shard per part");
  std::uint64_t owned_total = 0, cut_total = 0;
  for (std::uint32_t k = 0; k < num_parts; ++k) {
    const Shard& s = shards[k];
    owned_total += s.owned.size();
    cut_total += s.cut_edges;
    SPECKLE_CHECK(s.local.num_vertices() == s.num_local(),
                  "local CSR must have one row per owned+ghost vertex");
    SPECKLE_CHECK(std::is_sorted(s.owned.begin(), s.owned.end()) &&
                      std::is_sorted(s.ghosts.begin(), s.ghosts.end()),
                  "owned and ghost lists must be ascending");
    for (vid_t i = 0; i < s.num_owned(); ++i) {
      const vid_t v = s.owned[i];
      SPECKLE_CHECK(owner[v] == k && local_index[v] == i,
                    "owner/local_index must agree with the shard lists");
      // The local adjacency must mirror the global one, entry by entry.
      const auto global_adj = g.neighbors(v);
      const auto local_adj = s.local.neighbors(i);
      SPECKLE_CHECK(global_adj.size() == local_adj.size(),
                    "local degree must match global degree");
      for (std::size_t e = 0; e < global_adj.size(); ++e) {
        const vid_t gw = global_adj[e];
        const vid_t lw = local_adj[e];
        if (owner[gw] == k) {
          SPECKLE_CHECK(lw < s.num_owned() && s.owned[lw] == gw,
                        "owned neighbor must map to its owned local id");
        } else {
          SPECKLE_CHECK(lw >= s.num_owned() &&
                            s.ghosts[lw - s.num_owned()] == gw,
                        "cross-partition neighbor must map to a ghost slot");
        }
      }
    }
    for (const vid_t w : s.ghosts) {
      SPECKLE_CHECK(owner[w] != k, "a shard never ghosts its own vertex");
    }
    // Boundary/interior classification: a vertex is boundary iff its local
    // adjacency reaches a ghost slot (== it has a cut edge), and the count
    // matches the flags. Interior vertices are the overlap window — they
    // must have no cross-partition neighbor at all.
    SPECKLE_CHECK(s.boundary_flag.size() == s.num_owned(),
                  "one boundary flag per owned vertex");
    vid_t flagged = 0;
    for (vid_t i = 0; i < s.num_owned(); ++i) {
      bool has_ghost_neighbor = false;
      for (const vid_t lw : s.local.neighbors(i)) {
        if (lw >= s.num_owned()) has_ghost_neighbor = true;
      }
      SPECKLE_CHECK((s.boundary_flag[i] != 0) == has_ghost_neighbor,
                    "boundary flag must mark exactly the cut-edge endpoints");
      flagged += s.boundary_flag[i];
    }
    SPECKLE_CHECK(flagged == s.num_boundary,
                  "num_boundary must count the set flags");
    // Every ghost row must be empty.
    for (vid_t i = s.num_owned(); i < s.num_local(); ++i) {
      SPECKLE_CHECK(s.local.degree(i) == 0, "ghost rows carry no adjacency");
    }
  }
  SPECKLE_CHECK(owned_total == n, "every vertex owned exactly once");
  SPECKLE_CHECK(cut_total == cut_edges, "cut_edges must sum over shards");
}

}  // namespace speckle::graph
