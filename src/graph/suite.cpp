#include "graph/suite.hpp"

#include <bit>
#include <cmath>

#include "graph/builder.hpp"
#include "support/check.hpp"

namespace speckle::graph {
namespace {

/// Scale a grid dimension by the cube/square root of denom so the vertex
/// count shrinks by ~denom while the stencil structure is unchanged.
vid_t scale_dim(vid_t dim, std::uint32_t denom, double root) {
  const double factor = std::pow(static_cast<double>(denom), 1.0 / root);
  const auto scaled = static_cast<vid_t>(std::llround(dim / factor));
  return scaled < 3 ? 3 : scaled;
}

}  // namespace

const std::vector<SuiteEntry>& suite_entries() {
  static const std::vector<SuiteEntry> entries = {
      {"rmat-er", "Synthetic", false, {1048576, 20971268, 2, 59, 20.00, 23.37}},
      {"rmat-g", "Synthetic", false, {1048576, 20964268, 0, 899, 20.00, 472.81}},
      {"thermal2", "Thermal Simulation", true, {1228045, 8580313, 1, 11, 6.99, 0.66}},
      {"atmosmodd", "Atmospheric Model", false, {1270432, 8814880, 4, 7, 6.94, 0.06}},
      {"Hamrle3", "Circuit Simulation", false, {1447360, 11028464, 4, 15, 7.62, 7.21}},
      {"G3_circuit", "Circuit Simulation", true, {1585478, 7660826, 2, 6, 4.83, 0.41}},
  };
  return entries;
}

std::string suite_names() {
  std::string out;
  for (const SuiteEntry& e : suite_entries()) {
    if (!out.empty()) out += ' ';
    out += e.name;
  }
  return out;
}

const SuiteEntry* find_suite_entry(const std::string& name) {
  for (const SuiteEntry& e : suite_entries()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const SuiteEntry& suite_entry(const std::string& name) {
  const SuiteEntry* e = find_suite_entry(name);
  SPECKLE_CHECK(e != nullptr, "unknown suite graph '" + name + "'");
  return *e;
}

bool valid_suite_denom(std::uint32_t denom) {
  return std::has_single_bit(denom) && denom <= (1U << 19);
}

GeneratorSpec suite_generator_spec(const std::string& name,
                                   std::uint32_t denom, std::uint64_t seed) {
  SPECKLE_CHECK(valid_suite_denom(denom),
                "suite denom must be a power of two <= 2^19");
  // The sub-seeds below are seed+k offsets and callers derive seed*k
  // products; seed 0 collapses those into colliding streams, so reject it
  // loudly instead of silently producing correlated graphs.
  SPECKLE_CHECK(seed != 0, "suite seed 0 is reserved; pass a nonzero seed");
  GeneratorSpec spec;
  if (name == "rmat-er" || name == "rmat-g") {
    // Paper: 1M-vertex R-MAT, ~21M directed CSR entries -> ~10.5 undirected
    // edges per vertex before dedup. (a,b,c,d) per Section IV.
    const int scale = 20 - std::countr_zero(denom);
    spec.model = GenModel::kRmat;
    spec.num_vertices = 1ULL << scale;
    spec.num_edges = spec.num_vertices * 21 / 2;
    if (name == "rmat-g") spec.quadrants = {0.45, 0.15, 0.15, 0.25, 0.1};
    spec.seed = seed;
  } else if (name == "thermal2") {
    const vid_t d = scale_dim(107, denom, 3.0);
    spec.model = GenModel::kGrid3d;
    spec.nx = spec.ny = spec.nz = d;
    spec.defects = 0.5;
    spec.window = d;
    spec.seed = seed + 1;
  } else if (name == "atmosmodd") {
    spec.model = GenModel::kGrid3d;
    spec.nx = scale_dim(108, denom, 3.0);
    spec.ny = scale_dim(108, denom, 3.0);
    spec.nz = scale_dim(109, denom, 3.0);
    spec.seed = seed;
  } else if (name == "Hamrle3") {
    const auto n = static_cast<vid_t>(1447360 / denom);
    spec.model = GenModel::kLocalRandom;
    spec.num_vertices = n;
    spec.deg_lo = 1;
    spec.deg_hi = 7;
    spec.window = n < 2000 ? n / 2 : 1000;
    spec.seed = seed + 2;
  } else if (name == "G3_circuit") {
    const vid_t d = scale_dim(1259, denom, 2.0);
    spec.model = GenModel::kGrid2d;
    spec.nx = spec.ny = d;
    spec.defects = 0.42;
    spec.window = d;
    spec.seed = seed + 3;
  } else {
    SPECKLE_CHECK(false, "unknown suite graph '" + name + "'");
  }
  return normalized(spec);
}

CsrGraph make_suite_graph(const std::string& name, std::uint32_t denom,
                          std::uint64_t seed) {
  // The serial schedule draws exactly the RNG streams the suite has
  // always drawn (suite_generator_spec carries the historical seed
  // offsets), so this build is byte-identical to every prior release.
  const GeneratorSpec spec = suite_generator_spec(name, denom, seed);
  return build_csr(static_cast<vid_t>(spec.num_vertices),
                   generate_edges_serial(spec));
}

}  // namespace speckle::graph
