#pragma once
/// \file suite.hpp
/// The paper's benchmark suite (Table I), reproducible at reduced scale.
///
/// rmat-er and rmat-g use the paper's actual generator and parameters.
/// The four University of Florida matrices are replaced by structural
/// twins built from their published statistics (DESIGN.md §2):
///
///   thermal2   — 3-D 7-point stencil + 0.5 defect edges/vertex
///                (FEM thermal problem: grid-like, avg 6.99, max 11)
///   atmosmodd  — exact 3-D 7-point stencil
///                (atmospheric model: avg 6.94, variance 0.06)
///   Hamrle3    — locality-windowed random graph, initiated degree U[1,7]
///                (circuit: avg 7.62, variance 7.21)
///   G3_circuit — 2-D 5-point stencil + 0.42 defect edges/vertex
///                (circuit: avg 4.83, max 6)
///
/// `denom` divides the vertex count (power of two; 1 = paper scale). The
/// per-vertex degree structure is scale-invariant, so relative results
/// hold across scales (checked in EXPERIMENTS.md).

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/genspec.hpp"

namespace speckle::graph {

/// The statistics Table I publishes for each suite graph (at denom == 1).
struct PaperStats {
  vid_t num_vertices;
  std::uint64_t num_edges;  ///< directed CSR entries
  vid_t min_degree;
  vid_t max_degree;
  double avg_degree;
  double degree_variance;
};

struct SuiteEntry {
  std::string name;
  std::string domain;  ///< Table I "Application" column
  bool spd;            ///< Table I "s.p.d" column
  PaperStats paper;    ///< published statistics, for side-by-side reporting
};

/// The six suite graphs in Table I order.
const std::vector<SuiteEntry>& suite_entries();
/// Their names, space-separated (for the accepted-values list of a
/// rejected --suite or --graphs entry).
std::string suite_names();

/// Entry lookup by name; on an unknown name the first returns nullptr and
/// the second aborts.
const SuiteEntry* find_suite_entry(const std::string& name);
const SuiteEntry& suite_entry(const std::string& name);

/// True for the denoms every suite graph can be built at: powers of two up
/// to 2^19, the largest at which each twin keeps at least 2 vertices.
bool valid_suite_denom(std::uint32_t denom);

/// The GeneratorSpec a suite graph is built from: model, scaled dimensions
/// and the name's historical sub-seed offset, normalized. The spec's seed
/// already embeds the per-name offset (thermal2 seed+1, Hamrle3 seed+2,
/// G3_circuit seed+3) that keeps the suite's RNG streams independent.
/// `denom` must pass valid_suite_denom; seed must be nonzero.
GeneratorSpec suite_generator_spec(const std::string& name,
                                   std::uint32_t denom, std::uint64_t seed);

/// Build one suite graph. `denom` must pass valid_suite_denom.
/// Deterministic for a given (name, denom, seed) — and byte-stable across
/// releases: the suite draws its spec on the serial schedule
/// (generate_edges_serial, one Xoshiro256(seed) stream through the model's
/// body), which every checked-in golden depends on.
CsrGraph make_suite_graph(const std::string& name, std::uint32_t denom,
                          std::uint64_t seed = 0x5eed);

}  // namespace speckle::graph
