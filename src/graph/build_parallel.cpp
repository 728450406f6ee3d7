#include "graph/build_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "support/check.hpp"

namespace speckle::graph {

namespace {

/// Vertices per canonicalization task. Fixed grain (not a function of the
/// thread count) so the task decomposition — and with it any failure
/// reproduction — is identical at every --threads=N.
constexpr std::size_t kVertexGrain = 8192;

std::size_t vertex_chunks(vid_t n) { return (static_cast<std::size_t>(n) + kVertexGrain - 1) / kVertexGrain; }

}  // namespace

CsrGraph build_csr_parallel(vid_t num_vertices,
                            const std::vector<EdgeList>& shards,
                            support::ThreadPool& pool) {
  const std::size_t n = num_vertices;
  const std::size_t nchunks = vertex_chunks(num_vertices);

  // -- 1. count: per-vertex degree tallies over all shards. Relaxed atomic
  // increments commute, so the totals are schedule-independent.
  std::unique_ptr<std::atomic<eid_t>[]> cursor(new std::atomic<eid_t>[n]);
  pool.parallel_for_deterministic(nchunks, [&](std::size_t c, unsigned) {
    const std::size_t lo = c * kVertexGrain;
    const std::size_t hi = std::min(n, lo + kVertexGrain);
    for (std::size_t v = lo; v < hi; ++v) cursor[v].store(0, std::memory_order_relaxed);
  });
  pool.parallel_for_deterministic(shards.size(), [&](std::size_t s, unsigned) {
    for (const Edge& e : shards[s]) {
      SPECKLE_CHECK(e.src < num_vertices && e.dst < num_vertices,
                    "edge endpoint out of range");
      if (e.src == e.dst) continue;
      cursor[e.src].fetch_add(1, std::memory_order_relaxed);
      cursor[e.dst].fetch_add(1, std::memory_order_relaxed);
    }
  });

  // -- 2. offsets: exclusive prefix sum, with the cursors rewound to each
  // row's start so the fill pass can claim slots from them.
  std::vector<eid_t> row(n + 1, 0);
  std::uint64_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    row[v] = static_cast<eid_t>(total);
    total += cursor[v].load(std::memory_order_relaxed);
  }
  SPECKLE_CHECK(total <= std::numeric_limits<eid_t>::max(),
                "edge count overflows eid_t");
  row[n] = static_cast<eid_t>(total);
  pool.parallel_for_deterministic(nchunks, [&](std::size_t c, unsigned) {
    const std::size_t lo = c * kVertexGrain;
    const std::size_t hi = std::min(n, lo + kVertexGrain);
    for (std::size_t v = lo; v < hi; ++v) cursor[v].store(row[v], std::memory_order_relaxed);
  });

  // -- 3. fill: every edge claims a slot in its row. The intra-row order
  // depends on the schedule; step 4 canonicalizes it away.
  std::vector<vid_t> col(total);
  pool.parallel_for_deterministic(shards.size(), [&](std::size_t s, unsigned) {
    for (const Edge& e : shards[s]) {
      if (e.src == e.dst) continue;
      col[cursor[e.src].fetch_add(1, std::memory_order_relaxed)] = e.dst;
      col[cursor[e.dst].fetch_add(1, std::memory_order_relaxed)] = e.src;
    }
  });

  // -- 4. canonicalize: sort each adjacency list and mark its deduplicated
  // prefix. Per-row work only touches that row's slots, so the result
  // depends on the per-row multiset alone — bit-identical to the serial
  // sort-the-whole-edge-list build at any thread count.
  std::vector<eid_t> kept(n);
  pool.parallel_for_deterministic(nchunks, [&](std::size_t c, unsigned) {
    const std::size_t lo = c * kVertexGrain;
    const std::size_t hi = std::min(n, lo + kVertexGrain);
    for (std::size_t v = lo; v < hi; ++v) {
      vid_t* first = col.data() + row[v];
      vid_t* last = col.data() + row[v + 1];
      std::sort(first, last);
      kept[v] = static_cast<eid_t>(std::unique(first, last) - first);
    }
  });

  // -- 5. compact the deduplicated rows into their final offsets.
  std::vector<eid_t> final_row(n + 1, 0);
  std::uint64_t final_total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    final_row[v] = static_cast<eid_t>(final_total);
    final_total += kept[v];
  }
  final_row[n] = static_cast<eid_t>(final_total);
  std::vector<vid_t> final_col(final_total);
  pool.parallel_for_deterministic(nchunks, [&](std::size_t c, unsigned) {
    const std::size_t lo = c * kVertexGrain;
    const std::size_t hi = std::min(n, lo + kVertexGrain);
    for (std::size_t v = lo; v < hi; ++v) {
      std::copy_n(col.data() + row[v], kept[v], final_col.data() + final_row[v]);
    }
  });
  return CsrGraph(std::move(final_row), std::move(final_col));
}

}  // namespace speckle::graph
