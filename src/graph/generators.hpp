#pragma once
/// \file generators.hpp
/// Synthetic graph generators.
///
/// R-MAT follows Chakrabarti et al. (SDM'04) exactly — the generator the
/// paper uses for rmat-er / rmat-g. The stencil and local-random generators
/// produce the structural twins that stand in for the University of Florida
/// matrices (see DESIGN.md §2): they match the published vertex counts and
/// degree statistics of Table I, which are the properties coloring cost and
/// quality depend on.
///
/// All generators emit *undirected* edges as a directed EdgeList that the
/// caller symmetrizes via build_csr (the default BuildOptions).

#include <cstdint>

#include "graph/builder.hpp"
#include "graph/types.hpp"
#include "support/rng.hpp"

namespace speckle::graph {

/// R-MAT parameters: quadrant probabilities, must sum to ~1.
struct RmatParams {
  double a = 0.25;
  double b = 0.25;
  double c = 0.25;
  double d = 0.25;
  /// Per-level parameter noise, as in the reference implementation, to avoid
  /// perfectly self-similar artifacts.
  double noise = 0.1;
};

/// Draw one R-MAT endpoint pair from `rng` (scale recursion levels,
/// quadrant probabilities + optional per-level noise from `params`). The
/// building block both the serial generators below and the sharded
/// generators (genspec.hpp) consume — one chunk = one rng, many draws.
Edge rmat_edge(support::Xoshiro256& rng, std::uint32_t scale,
               const RmatParams& params);

/// Generate `num_edges` R-MAT edge pairs over 2^scale vertices.
EdgeList rmat(std::uint32_t scale, std::uint64_t num_edges, const RmatParams& params,
              std::uint64_t seed);

/// Erdős–Rényi G(n, m): m distinct endpoint pairs drawn uniformly.
EdgeList erdos_renyi(vid_t num_vertices, std::uint64_t num_edges, std::uint64_t seed);

/// 2-D 5-point stencil over an nx-by-ny grid (interior degree 4).
EdgeList stencil2d(vid_t nx, vid_t ny);

/// 3-D 7-point stencil over an nx-by-ny-by-nz grid (interior degree 6).
EdgeList stencil3d(vid_t nx, vid_t ny, vid_t nz);

/// Add `extra_per_vertex * n` random short-range "defect" edges to an edge
/// list: each extra edge connects v to a uniform vertex within ±window.
/// Used to roughen stencils into FEM/circuit-like degree distributions.
void add_local_defects(EdgeList& edges, vid_t num_vertices, double extra_per_vertex,
                       vid_t window, std::uint64_t seed);

/// Locality-structured random graph: each vertex v draws a target degree
/// uniformly in [deg_lo, deg_hi] and connects to that many uniform vertices
/// within ±window of v (clamped to the vertex range). Models circuit
/// matrices such as Hamrle3.
EdgeList local_random(vid_t num_vertices, vid_t deg_lo, vid_t deg_hi, vid_t window,
                      std::uint64_t seed);

/// Ring of n vertices with each vertex also linked to its k nearest
/// neighbors on each side (a regular test fixture).
EdgeList ring_lattice(vid_t num_vertices, vid_t k);

/// Complete graph on n vertices (tests: chromatic number = n).
EdgeList complete(vid_t num_vertices);

}  // namespace speckle::graph
