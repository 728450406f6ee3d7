#pragma once
/// \file genspec.hpp
/// The unified generator specification — one value that names a synthetic
/// graph completely: model, size, model parameters, seed.
///
/// A GeneratorSpec is THE workload-axis currency: the suite (suite.cpp)
/// describes every Table I graph as one, the on-disk CSR cache keys files
/// by its canonical string (cache.hpp), speckle_gen and the benches parse
/// one from the command line, and bench_multidev --denom=1 runs a family
/// of them as the huge tier (docs/graphs.md lists the specs).
///
/// Each model's edge drawing exists once (genspec.cpp): a body that draws
/// one part [lo, hi) of the model's work range from a Xoshiro256 passed
/// by reference. Two RNG schedules run those bodies:
///
///  * generate_shards(spec, pool) / generate_graph — KaGen-style sharded
///    generation: a fixed, thread-count-independent chunk plan, one
///    hash-derived RNG per chunk, then the streaming parallel CSR builder
///    (build_parallel.hpp). Deterministic for a fixed seed at ANY pool
///    concurrency.
///
///  * generate_edges_serial(spec) — one chunk over the whole range, one
///    Xoshiro256(seed) stream. The Table I suite is built this way, and
///    every checked-in golden depends on these bytes.
///
/// For RNG-drawing models the two schedules give different, equally
/// valid samples of the same distribution.
///
/// Models (KaGen naming, see docs/graphs.md for the parameter table):
///   rmat      Chakrabarti et al. recursive quadrants, per-level noise
///   kron      stochastic Kronecker (R-MAT initiator, zero noise)
///   ba        Barabási–Albert preferential attachment
///             (communication-free Batagelj–Brandes slot resolution)
///   rgg2d     random geometric graph in the unit square
///   grid2d    5-point stencil, optional local "defect" edges
///   grid3d    7-point stencil, optional local "defect" edges
///   localrand locality-windowed random graph (Hamrle3's twin)
///   er        Erdős–Rényi G(n, m)

#include <cstdint>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "support/threadpool.hpp"

namespace speckle::graph {

/// R-MAT quadrant probabilities (must sum to 1) and the per-level noise
/// that jitters them, as in Chakrabarti et al.'s reference generator, to
/// avoid perfectly self-similar artifacts.
struct RmatParams {
  double a = 0.25;
  double b = 0.25;
  double c = 0.25;
  double d = 0.25;
  double noise = 0.1;
};

enum class GenModel : std::uint8_t {
  kRmat,
  kKronecker,
  kBarabasiAlbert,
  kGeometric2d,
  kGrid2d,
  kGrid3d,
  kLocalRandom,
  kErdosRenyi,
};

const char* gen_model_name(GenModel model);
GenModel gen_model_from_name(const std::string& name);  // aborts on unknown

struct GeneratorSpec {
  GenModel model = GenModel::kRmat;
  std::uint64_t num_vertices = 0;  ///< grids derive this from nx*ny(*nz)
  /// Undirected edge draws (rmat/kron/er). 0 = derive from avg_degree.
  std::uint64_t num_edges = 0;
  /// Target average DIRECTED degree (CSR entries per vertex, Table I's
  /// "avg" column). Used to derive num_edges / radius / attach when those
  /// are unset; 0 = model default.
  double avg_degree = 0.0;

  RmatParams quadrants{};      ///< rmat / kron initiator
  std::uint32_t attach = 0;    ///< ba: edges per new vertex (0 = derive)
  double radius = 0.0;         ///< rgg2d: connect radius (0 = derive)
  std::uint32_t nx = 0, ny = 0, nz = 0;  ///< grids (0 = derive square/cube)
  double defects = 0.0;        ///< grids: extra local edges per vertex
  std::uint32_t window = 0;    ///< defect / localrand offset window (0 = derive)
  std::uint32_t deg_lo = 1, deg_hi = 7;  ///< localrand initiated degree range

  std::uint64_t seed = 0;  ///< must be nonzero (seed 0 is rejected loudly)
};

/// Parse "model:key=value,key=value" (e.g. "ba:n=16m,attach=3,seed=7",
/// "kron:scale=24,deg=12", "grid3d:nx=300,ny=300,nz=300,defects=0.5").
/// Size values accept k/m suffixes (decimal); scale=S means n = 2^S.
/// The result is normalized (below). Aborts loudly on unknown models or
/// keys, malformed values, and seed 0.
GeneratorSpec parse_generator_spec(const std::string& text,
                                   std::uint64_t default_seed);

/// Fill every derived field (grid dims from n, edge counts from
/// avg_degree, rgg radius, ba attach, defect window) and validate the
/// result. Aborts loudly on inconsistent parameters and on seed == 0 —
/// the suite's seed rule (PR 5) applies to every generator entry point.
GeneratorSpec normalized(GeneratorSpec spec);

/// Canonical one-line key for a normalized spec: model + every field that
/// influences the output, in fixed order. Equal keys <=> equal graphs (for
/// the same generation path). This string is the on-disk cache key.
std::string canonical_spec_key(const GeneratorSpec& spec);

/// Pre-generation footprint estimate for a normalized spec, so a caller
/// can refuse a spec before allocating: upper bounds on the undirected
/// edge draws, the directed CSR entries, and the peak bytes the sharded
/// generate + parallel CSR build will hold at once.
struct SpecFootprint {
  std::uint64_t edge_draws = 0;       ///< undirected edges generated
  std::uint64_t directed_edges = 0;   ///< CSR entries upper bound (pre-dedup)
  std::uint64_t build_peak_bytes = 0; ///< shards + fill + compact high-water
};
SpecFootprint estimate_footprint(const GeneratorSpec& spec);

/// The sharded schedule. The chunk decomposition is a function of the
/// spec alone and each chunk draws from its own hash-derived RNG, so the
/// shard contents are independent of the pool's concurrency.
std::vector<EdgeList> generate_shards(const GeneratorSpec& spec,
                                      support::ThreadPool& pool);

/// generate_shards + build_csr_parallel: the full sharded pipeline.
/// Bit-identical output at any pool concurrency.
CsrGraph generate_graph(const GeneratorSpec& spec, support::ThreadPool& pool);

/// generate_graph through the on-disk CSR cache (cache.hpp), keyed by
/// canonical_spec_key. Empty `dir` = plain generation.
CsrGraph generate_graph_cached(const GeneratorSpec& spec,
                               support::ThreadPool& pool,
                               const std::string& dir);

/// The serial schedule: the model's body once over its whole range, drawing
/// from one Xoshiro256(spec.seed) stream (grids: trunc(defects * n) defect
/// edges). Every model; runs on the calling thread. The suite's
/// byte-stability (and every checked-in golden) depends on this mapping
/// never changing.
EdgeList generate_edges_serial(const GeneratorSpec& spec);

}  // namespace speckle::graph
