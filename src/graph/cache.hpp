#pragma once
/// \file cache.hpp
/// Opt-in binary on-disk cache for generated graphs.
///
/// Generating the larger graphs (R-MAT at low --denom, the 10^8-edge
/// huge-tier specs) costs far more wall time than everything a bench does
/// with them, and every bench binary regenerates them from scratch. The
/// cache stores the finished CSR arrays keyed by a canonical spec string —
/// `canonical_spec_key(spec)` for GeneratorSpec graphs, a "suite:"-prefixed
/// variant for the Table I suite — so repeat runs (sweeps over schemes,
/// partitioners or thread counts) skip the generator entirely.
///
/// The cache is OPT-IN: it activates only when a directory is supplied via
/// `--graph-cache=DIR` or the `SPECKLE_GRAPH_CACHE` environment variable
/// (the flag wins). Correctness never depends on it — a missing, stale,
/// truncated or corrupt file is silently regenerated (and overwritten),
/// and a file from another format version (including every v1 file, which
/// used a fixed (name, denom, seed) key tuple instead of the spec string)
/// is rejected by the header guard.
///
/// File layout v2 (host-endian; the cache is a local artifact, not an
/// interchange format):
///   u64 magic | u32 version | u32 vid_bytes | u32 eid_bytes | u32 key_len
///   | u64 key_hash | u64 n | u64 m
///   | char key[key_len] | eid_t row_offsets[n+1] | vid_t col_indices[m]
/// The version field stays at byte offset 8, where it has lived since v1,
/// so old binaries reject new files just as new binaries reject old ones.
/// Every header field and the embedded key are validated on load, then the
/// CSR invariants are re-checked (CsrGraph::validate) so a torn or
/// bit-rotted file can never abort the CsrGraph constructor.

#include <cstdint>
#include <string>

#include "graph/csr_graph.hpp"

namespace speckle::graph {

/// On-disk format version. Bump on any layout change — and on any change
/// to the generators, so stale files never masquerade as current.
/// v2: (name, denom, seed) tuple key replaced by the canonical spec key
/// string, embedded in the file and verified on load.
inline constexpr std::uint32_t kGraphCacheVersion = 2;

/// Resolve the cache directory: `flag` when nonempty, else the
/// SPECKLE_GRAPH_CACHE environment variable, else "" (caching disabled).
std::string resolve_graph_cache_dir(const std::string& flag);

/// The cache file path for `key` under `dir`: a sanitized key prefix (for
/// a human-readable directory listing) plus the key's 64-bit hash (for
/// uniqueness after sanitization truncates or collapses characters).
std::string graph_cache_path(const std::string& dir, const std::string& key);

/// Load a cached CSR from `path`. Returns false (leaving `out` untouched)
/// when the file is missing, from another format version, keyed for a
/// different graph, truncated, or failing the CSR invariants.
bool load_cached_graph(const std::string& path, const std::string& key,
                       CsrGraph* out);

/// Write `g` under `path` (temp file + rename, so a concurrent reader
/// never sees a torn file). Returns false when the directory cannot be
/// created or written; the caller just proceeds uncached.
bool store_cached_graph(const std::string& path, const std::string& key,
                        const CsrGraph& g);

/// The cache key for a Table I suite graph: "suite:" + the canonical spec
/// key of suite_generator_spec(name, denom, seed) + the caller's denom, so
/// any change to the suite's parameters or seed offsets changes the key.
std::string suite_cache_key(const std::string& name, std::uint32_t denom,
                            std::uint64_t seed);

/// make_suite_graph with the on-disk cache: a hit loads, a miss generates
/// and stores. Empty `dir` = plain generation (the cache stays opt-in).
CsrGraph make_suite_graph_cached(const std::string& name, std::uint32_t denom,
                                 std::uint64_t seed, const std::string& dir);

}  // namespace speckle::graph
