#include "graph/genspec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <iomanip>
#include <sstream>
#include <utility>

#include "graph/build_parallel.hpp"
#include "graph/cache.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace speckle::graph {

using support::mix64;
using support::Xoshiro256;

namespace {

// ---------------------------------------------------------------------------
// Chunk plan: a fixed decomposition per spec, never per thread count.
// ---------------------------------------------------------------------------

/// Edge draws per chunk for the edge-stream models (rmat/kron/er).
constexpr std::uint64_t kEdgeGrain = 1ULL << 20;
/// Vertices per chunk for the per-vertex models (ba/localrand/defects).
constexpr std::uint64_t kVertexGrain = 1ULL << 18;
/// Hard cap so tiny grains cannot explode the shard vector.
constexpr std::uint64_t kMaxChunks = 1024;

std::uint64_t chunks_for(std::uint64_t work, std::uint64_t grain) {
  if (work == 0) return 1;
  return std::clamp<std::uint64_t>((work + grain - 1) / grain, 1, kMaxChunks);
}

/// [begin, end) of chunk c when `work` items are split into `chunks`.
std::pair<std::uint64_t, std::uint64_t> chunk_range(std::uint64_t work,
                                                    std::uint64_t chunks,
                                                    std::uint64_t c) {
  const std::uint64_t lo = work * c / chunks;
  const std::uint64_t hi = work * (c + 1) / chunks;
  return {lo, hi};
}

/// One independent RNG per (spec seed, model salt, chunk). Hash-derived so
/// any chunk's stream can be opened without generating its predecessors —
/// the property that makes the decomposition thread-count independent.
Xoshiro256 chunk_rng(std::uint64_t seed, std::uint64_t salt, std::uint64_t chunk) {
  return Xoshiro256(mix64(seed + 0x9E3779B97F4A7C15ULL * (salt + 1)) ^
                    mix64(chunk + 0xC0FFEEULL));
}

std::uint32_t log2_exact(std::uint64_t n, const char* what) {
  SPECKLE_CHECK(n >= 2 && (n & (n - 1)) == 0,
                std::string(what) + " needs a power-of-two vertex count "
                                    "(set scale=S or a power-of-two n)");
  std::uint32_t l = 0;
  while ((1ULL << l) < n) ++l;
  return l;
}

// ---------------------------------------------------------------------------
// Barabási–Albert, communication-free (Batagelj–Brandes slot resolution;
// the scheme KaGen's barabassi.h parallelizes with). Edge slot i belongs to
// vertex i/attach; its target is found by repeatedly re-drawing earlier
// slots' uniform picks from a stateless hash until an even endpoint-array
// position — a source slot, whose vertex is just index arithmetic — is hit.
// ---------------------------------------------------------------------------

/// Uniform in [0, 2*slot + 1), stateless per (seed, slot).
std::uint64_t ba_draw(std::uint64_t seed, std::uint64_t slot) {
  const std::uint64_t x = mix64(seed ^ mix64(slot + 0xba5eba11ULL));
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(x) * (2 * slot + 1);
  return static_cast<std::uint64_t>(wide >> 64);
}

vid_t ba_resolve(std::uint64_t seed, std::uint32_t attach, std::uint64_t slot) {
  std::uint64_t r = ba_draw(seed, slot);
  while (r & 1) r = ba_draw(seed, (r - 1) / 2);  // odd = a target slot: recurse
  return static_cast<vid_t>((r / 2) / attach);   // even = a source slot
}

// ---------------------------------------------------------------------------
// Shared defect-edge draw (grids): the sharded twin of add_local_defects —
// each chunk owns a vertex range and draws its share from its own stream.
// ---------------------------------------------------------------------------

void add_defects_chunk(EdgeList& out, Xoshiro256& rng, std::uint64_t v_lo,
                       std::uint64_t v_hi, std::uint64_t num_vertices,
                       double rate, std::uint32_t window) {
  // Telescoping share: sums to llround(rate * n) across all chunks.
  const auto lo_count = static_cast<std::uint64_t>(std::llround(rate * static_cast<double>(v_lo)));
  const auto hi_count = static_cast<std::uint64_t>(std::llround(rate * static_cast<double>(v_hi)));
  for (std::uint64_t i = lo_count; i < hi_count; ++i) {
    const auto v = static_cast<vid_t>(v_lo + rng.next_below(v_hi - v_lo));
    std::int64_t offset = rng.next_range(1, window);
    if (rng.next_bool(0.5)) offset = -offset;
    const std::int64_t w = static_cast<std::int64_t>(v) + offset;
    if (w < 0 || w >= static_cast<std::int64_t>(num_vertices) ||
        w == static_cast<std::int64_t>(v)) {
      continue;  // falls off the vertex range; skip rather than wrap
    }
    out.push_back({v, static_cast<vid_t>(w)});
  }
}

/// Unit-interval coordinate from a stateless hash (rgg2d point clouds).
double unit_coord(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix64(seed + index) >> 11) * 0x1.0p-53;
}

}  // namespace

// ---------------------------------------------------------------------------
// Names, parsing, normalization
// ---------------------------------------------------------------------------

const char* gen_model_name(GenModel model) {
  switch (model) {
    case GenModel::kRmat: return "rmat";
    case GenModel::kKronecker: return "kron";
    case GenModel::kBarabasiAlbert: return "ba";
    case GenModel::kGeometric2d: return "rgg2d";
    case GenModel::kGrid2d: return "grid2d";
    case GenModel::kGrid3d: return "grid3d";
    case GenModel::kLocalRandom: return "localrand";
    case GenModel::kErdosRenyi: return "er";
  }
  SPECKLE_UNREACHABLE("bad GenModel");
}

GenModel gen_model_from_name(const std::string& name) {
  for (const GenModel m :
       {GenModel::kRmat, GenModel::kKronecker, GenModel::kBarabasiAlbert,
        GenModel::kGeometric2d, GenModel::kGrid2d, GenModel::kGrid3d,
        GenModel::kLocalRandom, GenModel::kErdosRenyi}) {
    if (name == gen_model_name(m)) return m;
  }
  SPECKLE_CHECK(false, "unknown generator model '" + name +
                           "' (rmat, kron, ba, rgg2d, grid2d, grid3d, "
                           "localrand, er)");
  return GenModel::kRmat;  // unreachable
}

namespace {

std::uint64_t parse_size(const std::string& value, const std::string& key) {
  SPECKLE_CHECK(!value.empty(), "empty value for spec key '" + key + "'");
  std::uint64_t mult = 1;
  std::string digits = value;
  const char suffix = static_cast<char>(std::tolower(digits.back()));
  if (suffix == 'k' || suffix == 'm') {
    mult = suffix == 'k' ? 1000ULL : 1000000ULL;
    digits.pop_back();
  }
  std::size_t used = 0;
  std::uint64_t parsed = 0;
  try {
    parsed = std::stoull(digits, &used);
  } catch (...) {
    used = 0;
  }
  SPECKLE_CHECK(used == digits.size() && !digits.empty(),
                "malformed value '" + value + "' for spec key '" + key + "'");
  return parsed * mult;
}

double parse_real(const std::string& value, const std::string& key) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (...) {
    used = 0;
  }
  SPECKLE_CHECK(used == value.size() && !value.empty(),
                "malformed value '" + value + "' for spec key '" + key + "'");
  return parsed;
}

}  // namespace

GeneratorSpec parse_generator_spec(const std::string& text,
                                   std::uint64_t default_seed) {
  GeneratorSpec spec;
  spec.seed = default_seed;
  const std::size_t colon = text.find(':');
  spec.model = gen_model_from_name(text.substr(0, colon));
  if (colon != std::string::npos) {
    std::stringstream args(text.substr(colon + 1));
    std::string pair;
    while (std::getline(args, pair, ',')) {
      if (pair.empty()) continue;
      const std::size_t eq = pair.find('=');
      SPECKLE_CHECK(eq != std::string::npos,
                    "spec argument '" + pair + "' is not key=value");
      const std::string key = pair.substr(0, eq);
      const std::string value = pair.substr(eq + 1);
      if (key == "n") {
        spec.num_vertices = parse_size(value, key);
      } else if (key == "scale") {
        const std::uint64_t s = parse_size(value, key);
        SPECKLE_CHECK(s >= 1 && s <= 31, "scale must be in [1,31]");
        spec.num_vertices = 1ULL << s;
      } else if (key == "edges") {
        spec.num_edges = parse_size(value, key);
      } else if (key == "deg") {
        spec.avg_degree = parse_real(value, key);
      } else if (key == "a") {
        spec.quadrants.a = parse_real(value, key);
      } else if (key == "b") {
        spec.quadrants.b = parse_real(value, key);
      } else if (key == "c") {
        spec.quadrants.c = parse_real(value, key);
      } else if (key == "d") {
        spec.quadrants.d = parse_real(value, key);
      } else if (key == "noise") {
        spec.quadrants.noise = parse_real(value, key);
      } else if (key == "attach") {
        spec.attach = static_cast<std::uint32_t>(parse_size(value, key));
      } else if (key == "radius") {
        spec.radius = parse_real(value, key);
      } else if (key == "nx") {
        spec.nx = static_cast<std::uint32_t>(parse_size(value, key));
      } else if (key == "ny") {
        spec.ny = static_cast<std::uint32_t>(parse_size(value, key));
      } else if (key == "nz") {
        spec.nz = static_cast<std::uint32_t>(parse_size(value, key));
      } else if (key == "defects") {
        spec.defects = parse_real(value, key);
      } else if (key == "window") {
        spec.window = static_cast<std::uint32_t>(parse_size(value, key));
      } else if (key == "deglo") {
        spec.deg_lo = static_cast<std::uint32_t>(parse_size(value, key));
      } else if (key == "deghi") {
        spec.deg_hi = static_cast<std::uint32_t>(parse_size(value, key));
      } else if (key == "seed") {
        spec.seed = parse_size(value, key);
      } else {
        SPECKLE_CHECK(false, "unknown spec key '" + key + "'");
      }
    }
  }
  return normalized(spec);
}

GeneratorSpec normalized(GeneratorSpec spec) {
  // The suite's seed rule (PR 5), applied uniformly: sub-streams are
  // derived as seed+k / seed*k products, which seed 0 collapses into
  // colliding streams — reject loudly at every generator entry point.
  SPECKLE_CHECK(spec.seed != 0,
                "generator seed 0 is reserved; pass a nonzero seed");
  switch (spec.model) {
    case GenModel::kRmat:
    case GenModel::kKronecker: {
      if (spec.num_vertices == 0) spec.num_vertices = 1ULL << 20;
      log2_exact(spec.num_vertices, gen_model_name(spec.model));
      if (spec.avg_degree <= 0.0) spec.avg_degree = 16.0;
      if (spec.num_edges == 0) {
        spec.num_edges = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(spec.num_vertices) * spec.avg_degree / 2.0));
      }
      if (spec.model == GenModel::kKronecker) spec.quadrants.noise = 0.0;
      const double sum = spec.quadrants.a + spec.quadrants.b + spec.quadrants.c +
                         spec.quadrants.d;
      SPECKLE_CHECK(std::abs(sum - 1.0) < 1e-6,
                    "rmat/kron quadrant probabilities must sum to 1");
      break;
    }
    case GenModel::kBarabasiAlbert: {
      if (spec.num_vertices == 0) spec.num_vertices = 1ULL << 20;
      if (spec.avg_degree <= 0.0) spec.avg_degree = 6.0;
      if (spec.attach == 0) {
        spec.attach = static_cast<std::uint32_t>(
            std::max<std::int64_t>(1, std::llround(spec.avg_degree / 2.0)));
      }
      SPECKLE_CHECK(spec.num_vertices > spec.attach, "ba needs n > attach");
      break;
    }
    case GenModel::kGeometric2d: {
      if (spec.num_vertices == 0) spec.num_vertices = 1ULL << 20;
      if (spec.avg_degree <= 0.0) spec.avg_degree = 8.0;
      if (spec.radius <= 0.0) {
        // E[directed degree] = pi * r^2 * n  =>  r = sqrt(deg / (pi * n)).
        spec.radius = std::sqrt(spec.avg_degree /
                                (3.14159265358979323846 *
                                 static_cast<double>(spec.num_vertices)));
      }
      SPECKLE_CHECK(spec.radius > 0.0 && spec.radius < 1.0,
                    "rgg2d radius must land in (0,1)");
      break;
    }
    case GenModel::kGrid2d: {
      if (spec.nx == 0 || spec.ny == 0) {
        SPECKLE_CHECK(spec.num_vertices > 0, "grid2d needs n or nx/ny");
        const auto side = static_cast<std::uint32_t>(std::llround(
            std::sqrt(static_cast<double>(spec.num_vertices))));
        spec.nx = spec.ny = std::max(2u, side);
      }
      spec.num_vertices = static_cast<std::uint64_t>(spec.nx) * spec.ny;
      if (spec.defects > 0.0 && spec.window == 0) spec.window = spec.nx;
      break;
    }
    case GenModel::kGrid3d: {
      if (spec.nx == 0 || spec.ny == 0 || spec.nz == 0) {
        SPECKLE_CHECK(spec.num_vertices > 0, "grid3d needs n or nx/ny/nz");
        const auto side = static_cast<std::uint32_t>(std::llround(
            std::cbrt(static_cast<double>(spec.num_vertices))));
        spec.nx = spec.ny = spec.nz = std::max(2u, side);
      }
      spec.num_vertices =
          static_cast<std::uint64_t>(spec.nx) * spec.ny * spec.nz;
      if (spec.defects > 0.0 && spec.window == 0) spec.window = spec.nx;
      break;
    }
    case GenModel::kLocalRandom: {
      if (spec.num_vertices == 0) spec.num_vertices = 1ULL << 20;
      if (spec.avg_degree > 0.0) {
        spec.deg_lo = 1;
        spec.deg_hi = static_cast<std::uint32_t>(std::max<std::int64_t>(
            1, std::llround(spec.avg_degree - 1.0)));
      }
      SPECKLE_CHECK(spec.deg_lo <= spec.deg_hi,
                    "localrand degree range inverted");
      if (spec.window == 0) {
        spec.window = spec.num_vertices < 2000
                          ? static_cast<std::uint32_t>(
                                std::max<std::uint64_t>(1, spec.num_vertices / 2))
                          : 1000;
      }
      break;
    }
    case GenModel::kErdosRenyi: {
      if (spec.num_vertices == 0) spec.num_vertices = 1ULL << 20;
      if (spec.avg_degree <= 0.0) spec.avg_degree = 8.0;
      if (spec.num_edges == 0) {
        spec.num_edges = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(spec.num_vertices) * spec.avg_degree / 2.0));
      }
      SPECKLE_CHECK(spec.num_vertices >= 2, "er needs at least 2 vertices");
      break;
    }
  }
  SPECKLE_CHECK(spec.num_vertices >= 2, "generator needs at least 2 vertices");
  SPECKLE_CHECK(spec.num_vertices <= 0xFFFFFFFFULL,
                "vertex count overflows vid_t");
  return spec;
}

std::string canonical_spec_key(const GeneratorSpec& spec) {
  std::ostringstream out;
  out << gen_model_name(spec.model) << "|n=" << spec.num_vertices;
  // Doubles print as hexfloat: exact round-trip, no locale/precision drift.
  out << std::hexfloat;
  switch (spec.model) {
    case GenModel::kRmat:
      out << "|m=" << spec.num_edges << "|a=" << spec.quadrants.a
          << "|b=" << spec.quadrants.b << "|c=" << spec.quadrants.c
          << "|d=" << spec.quadrants.d << "|noise=" << spec.quadrants.noise;
      break;
    case GenModel::kKronecker:
      out << "|m=" << spec.num_edges << "|a=" << spec.quadrants.a
          << "|b=" << spec.quadrants.b << "|c=" << spec.quadrants.c
          << "|d=" << spec.quadrants.d;
      break;
    case GenModel::kBarabasiAlbert:
      out << "|attach=" << spec.attach;
      break;
    case GenModel::kGeometric2d:
      out << "|radius=" << spec.radius;
      break;
    case GenModel::kGrid2d:
      out << "|nx=" << spec.nx << "|ny=" << spec.ny
          << "|defects=" << spec.defects << "|window=" << spec.window;
      break;
    case GenModel::kGrid3d:
      out << "|nx=" << spec.nx << "|ny=" << spec.ny << "|nz=" << spec.nz
          << "|defects=" << spec.defects << "|window=" << spec.window;
      break;
    case GenModel::kLocalRandom:
      out << "|deglo=" << spec.deg_lo << "|deghi=" << spec.deg_hi
          << "|window=" << spec.window;
      break;
    case GenModel::kErdosRenyi:
      out << "|m=" << spec.num_edges;
      break;
  }
  out << "|seed=0x" << std::hex << spec.seed;
  return out.str();
}

SpecFootprint estimate_footprint(const GeneratorSpec& spec) {
  SpecFootprint fp;
  const std::uint64_t n = spec.num_vertices;
  switch (spec.model) {
    case GenModel::kRmat:
    case GenModel::kKronecker:
    case GenModel::kErdosRenyi:
      fp.edge_draws = spec.num_edges;
      break;
    case GenModel::kBarabasiAlbert:
      fp.edge_draws = n * spec.attach;
      break;
    case GenModel::kGeometric2d: {
      // E[degree] = pi r^2 n, so E[undirected edges] = n * E[degree] / 2.
      const double degree = 3.14159265358979323846 * spec.radius *
                            spec.radius * static_cast<double>(n);
      const double expect = degree * static_cast<double>(n) / 2.0;
      // 30% head-room over the expectation for Poisson fluctuation.
      fp.edge_draws = static_cast<std::uint64_t>(expect * 1.3) + 1024;
      break;
    }
    case GenModel::kGrid2d:
      fp.edge_draws = 2 * n + static_cast<std::uint64_t>(spec.defects * static_cast<double>(n));
      break;
    case GenModel::kGrid3d:
      fp.edge_draws = 3 * n + static_cast<std::uint64_t>(spec.defects * static_cast<double>(n));
      break;
    case GenModel::kLocalRandom:
      fp.edge_draws = n * spec.deg_hi;  // per-vertex target never exceeds deg_hi
      break;
  }
  fp.directed_edges = 2 * fp.edge_draws;
  // Shards (8 B/edge) + fill column array + compacted column array
  // (4 B/entry each) + the per-vertex row/cursor/kept arrays, plus the
  // rgg2d point cloud when applicable.
  fp.build_peak_bytes = fp.edge_draws * sizeof(Edge) +
                        2 * fp.directed_edges * sizeof(vid_t) + n * 24;
  if (spec.model == GenModel::kGeometric2d) {
    fp.build_peak_bytes += n * (2 * sizeof(double) + 2 * sizeof(vid_t));
  }
  return fp;
}

// ---------------------------------------------------------------------------
// Sharded generation
// ---------------------------------------------------------------------------

namespace {

void rmat_chunks(const GeneratorSpec& spec, std::vector<EdgeList>& shards,
                 support::ThreadPool& pool) {
  const std::uint32_t scale = log2_exact(spec.num_vertices, "rmat/kron");
  RmatParams params = spec.quadrants;
  if (spec.model == GenModel::kKronecker) params.noise = 0.0;
  const std::uint64_t chunks = chunks_for(spec.num_edges, kEdgeGrain);
  shards.resize(chunks);
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [lo, hi] = chunk_range(spec.num_edges, chunks, c);
    Xoshiro256 rng = chunk_rng(spec.seed, 0x41, c);
    EdgeList& out = shards[c];
    out.reserve(hi - lo);
    for (std::uint64_t i = lo; i < hi; ++i) {
      out.push_back(rmat_edge(rng, scale, params));
    }
  });
}

void er_chunks(const GeneratorSpec& spec, std::vector<EdgeList>& shards,
               support::ThreadPool& pool) {
  const std::uint64_t n = spec.num_vertices;
  const std::uint64_t chunks = chunks_for(spec.num_edges, kEdgeGrain);
  shards.resize(chunks);
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [lo, hi] = chunk_range(spec.num_edges, chunks, c);
    Xoshiro256 rng = chunk_rng(spec.seed, 0x45, c);
    EdgeList& out = shards[c];
    out.reserve(hi - lo);
    for (std::uint64_t i = lo; i < hi; ++i) {
      const auto src = static_cast<vid_t>(rng.next_below(n));
      auto dst = static_cast<vid_t>(rng.next_below(n));
      while (dst == src) dst = static_cast<vid_t>(rng.next_below(n));
      out.push_back({src, dst});
    }
  });
}

void ba_chunks(const GeneratorSpec& spec, std::vector<EdgeList>& shards,
               support::ThreadPool& pool) {
  const std::uint64_t n = spec.num_vertices;
  const std::uint32_t attach = spec.attach;
  const std::uint64_t chunks = chunks_for(n, kVertexGrain);
  shards.resize(chunks);
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [lo, hi] = chunk_range(n, chunks, c);
    EdgeList& out = shards[c];
    out.reserve((hi - lo) * attach);
    for (std::uint64_t v = lo; v < hi; ++v) {
      for (std::uint32_t k = 0; k < attach; ++k) {
        const std::uint64_t slot = v * attach + k;
        const vid_t w = ba_resolve(spec.seed, attach, slot);
        if (w != static_cast<vid_t>(v)) out.push_back({static_cast<vid_t>(v), w});
      }
    }
  });
}

void localrand_chunks(const GeneratorSpec& spec, std::vector<EdgeList>& shards,
                      support::ThreadPool& pool) {
  const std::uint64_t n = spec.num_vertices;
  const std::uint64_t chunks = chunks_for(n, kVertexGrain);
  shards.resize(chunks);
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [lo, hi] = chunk_range(n, chunks, c);
    Xoshiro256 rng = chunk_rng(spec.seed, 0x4c, c);
    EdgeList& out = shards[c];
    out.reserve((hi - lo) * (spec.deg_lo + spec.deg_hi) / 2);
    for (std::uint64_t v = lo; v < hi; ++v) {
      const auto target =
          static_cast<vid_t>(rng.next_range(spec.deg_lo, spec.deg_hi));
      for (vid_t j = 0; j < target; ++j) {
        std::int64_t offset = rng.next_range(1, spec.window);
        if (rng.next_bool(0.5)) offset = -offset;
        const std::int64_t w = static_cast<std::int64_t>(v) + offset;
        if (w < 0 || w >= static_cast<std::int64_t>(n)) continue;
        out.push_back({static_cast<vid_t>(v), static_cast<vid_t>(w)});
      }
    }
  });
}

void grid2d_chunks(const GeneratorSpec& spec, std::vector<EdgeList>& shards,
                   support::ThreadPool& pool) {
  const std::uint64_t nx = spec.nx, ny = spec.ny;
  const std::uint64_t n = nx * ny;
  const std::uint64_t chunks =
      chunks_for(ny, std::max<std::uint64_t>(1, kVertexGrain / nx));
  shards.resize(chunks);
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [y_lo, y_hi] = chunk_range(ny, chunks, c);
    EdgeList& out = shards[c];
    out.reserve((y_hi - y_lo) * nx * 2);
    auto id = [nx](std::uint64_t x, std::uint64_t y) {
      return static_cast<vid_t>(y * nx + x);
    };
    for (std::uint64_t y = y_lo; y < y_hi; ++y) {
      for (std::uint64_t x = 0; x < nx; ++x) {
        if (x + 1 < nx) out.push_back({id(x, y), id(x + 1, y)});
        if (y + 1 < ny) out.push_back({id(x, y), id(x, y + 1)});
      }
    }
    if (spec.defects > 0.0) {
      Xoshiro256 rng = chunk_rng(spec.seed, 0x32, c);
      add_defects_chunk(out, rng, y_lo * nx, y_hi * nx, n, spec.defects,
                        spec.window);
    }
  });
}

void grid3d_chunks(const GeneratorSpec& spec, std::vector<EdgeList>& shards,
                   support::ThreadPool& pool) {
  const std::uint64_t nx = spec.nx, ny = spec.ny, nz = spec.nz;
  const std::uint64_t n = nx * ny * nz;
  const std::uint64_t chunks =
      chunks_for(nz, std::max<std::uint64_t>(1, kVertexGrain / (nx * ny)));
  shards.resize(chunks);
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [z_lo, z_hi] = chunk_range(nz, chunks, c);
    EdgeList& out = shards[c];
    out.reserve((z_hi - z_lo) * nx * ny * 3);
    auto id = [nx, ny](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
      return static_cast<vid_t>((z * ny + y) * nx + x);
    };
    for (std::uint64_t z = z_lo; z < z_hi; ++z) {
      for (std::uint64_t y = 0; y < ny; ++y) {
        for (std::uint64_t x = 0; x < nx; ++x) {
          if (x + 1 < nx) out.push_back({id(x, y, z), id(x + 1, y, z)});
          if (y + 1 < ny) out.push_back({id(x, y, z), id(x, y + 1, z)});
          if (z + 1 < nz) out.push_back({id(x, y, z), id(x, y, z + 1)});
        }
      }
    }
    if (spec.defects > 0.0) {
      Xoshiro256 rng = chunk_rng(spec.seed, 0x33, c);
      add_defects_chunk(out, rng, z_lo * nx * ny, z_hi * nx * ny, n,
                        spec.defects, spec.window);
    }
  });
}

void rgg2d_chunks(const GeneratorSpec& spec, std::vector<EdgeList>& shards,
                  support::ThreadPool& pool) {
  const std::uint64_t n = spec.num_vertices;
  const double radius = spec.radius;

  // Stateless point cloud: any chunk could recompute any vertex's
  // coordinates, but materializing them once is cheaper than re-hashing
  // per distance test.
  std::vector<double> xs(n), ys(n);
  const std::uint64_t coord_chunks = chunks_for(n, kVertexGrain);
  pool.parallel_for_deterministic(coord_chunks, [&](std::size_t c, unsigned) {
    const auto [lo, hi] = chunk_range(n, coord_chunks, c);
    for (std::uint64_t v = lo; v < hi; ++v) {
      xs[v] = unit_coord(spec.seed, 2 * v + 1);
      ys[v] = unit_coord(spec.seed, 2 * v + 2);
    }
  });

  // Bucket points into radius-sized cells (two serial counting-sort
  // passes, ascending v, so the per-cell lists are canonical).
  const auto cells = static_cast<std::uint64_t>(std::ceil(1.0 / radius));
  auto cell_of = [&](std::uint64_t v) {
    const auto cx = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(xs[v] / radius), cells - 1);
    const auto cy = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(ys[v] / radius), cells - 1);
    return cy * cells + cx;
  };
  std::vector<eid_t> cell_start(cells * cells + 1, 0);
  for (std::uint64_t v = 0; v < n; ++v) ++cell_start[cell_of(v) + 1];
  for (std::size_t i = 1; i < cell_start.size(); ++i) {
    cell_start[i] += cell_start[i - 1];
  }
  std::vector<vid_t> cell_points(n);
  {
    std::vector<eid_t> cursor(cell_start.begin(), cell_start.end() - 1);
    for (std::uint64_t v = 0; v < n; ++v) {
      cell_points[cursor[cell_of(v)]++] = static_cast<vid_t>(v);
    }
  }

  // Parallel over cell-row bands; each vertex scans its 3x3 neighborhood
  // and emits pairs (v, w) with w > v once.
  const std::uint64_t chunks = chunks_for(cells, 1);
  shards.resize(chunks);
  const double r2 = radius * radius;
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [cy_lo, cy_hi] = chunk_range(cells, chunks, c);
    EdgeList& out = shards[c];
    for (std::uint64_t cy = cy_lo; cy < cy_hi; ++cy) {
      for (std::uint64_t cx = 0; cx < cells; ++cx) {
        const std::uint64_t cell = cy * cells + cx;
        for (eid_t i = cell_start[cell]; i < cell_start[cell + 1]; ++i) {
          const vid_t v = cell_points[i];
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const std::int64_t ncx = static_cast<std::int64_t>(cx) + dx;
              const std::int64_t ncy = static_cast<std::int64_t>(cy) + dy;
              if (ncx < 0 || ncy < 0 ||
                  ncx >= static_cast<std::int64_t>(cells) ||
                  ncy >= static_cast<std::int64_t>(cells)) {
                continue;
              }
              const std::uint64_t ncell =
                  static_cast<std::uint64_t>(ncy) * cells +
                  static_cast<std::uint64_t>(ncx);
              for (eid_t j = cell_start[ncell]; j < cell_start[ncell + 1];
                   ++j) {
                const vid_t w = cell_points[j];
                if (w <= v) continue;  // emit each pair once
                const double ddx = xs[v] - xs[w];
                const double ddy = ys[v] - ys[w];
                if (ddx * ddx + ddy * ddy <= r2) out.push_back({v, w});
              }
            }
          }
        }
      }
    }
  });
}

}  // namespace

std::vector<EdgeList> generate_shards(const GeneratorSpec& raw,
                                      support::ThreadPool& pool) {
  const GeneratorSpec spec = normalized(raw);
  std::vector<EdgeList> shards;
  switch (spec.model) {
    case GenModel::kRmat:
    case GenModel::kKronecker:
      rmat_chunks(spec, shards, pool);
      break;
    case GenModel::kErdosRenyi:
      er_chunks(spec, shards, pool);
      break;
    case GenModel::kBarabasiAlbert:
      ba_chunks(spec, shards, pool);
      break;
    case GenModel::kLocalRandom:
      localrand_chunks(spec, shards, pool);
      break;
    case GenModel::kGrid2d:
      grid2d_chunks(spec, shards, pool);
      break;
    case GenModel::kGrid3d:
      grid3d_chunks(spec, shards, pool);
      break;
    case GenModel::kGeometric2d:
      rgg2d_chunks(spec, shards, pool);
      break;
  }
  return shards;
}

CsrGraph generate_graph(const GeneratorSpec& raw, support::ThreadPool& pool) {
  const GeneratorSpec spec = normalized(raw);
  const std::vector<EdgeList> shards = generate_shards(spec, pool);
  return build_csr_parallel(static_cast<vid_t>(spec.num_vertices), shards,
                            pool);
}

CsrGraph generate_graph_cached(const GeneratorSpec& raw,
                               support::ThreadPool& pool,
                               const std::string& dir) {
  const GeneratorSpec spec = normalized(raw);
  if (dir.empty()) return generate_graph(spec, pool);
  const std::string key = canonical_spec_key(spec);
  const std::string path = graph_cache_path(dir, key);
  CsrGraph g;
  if (load_cached_graph(path, key, &g)) return g;
  g = generate_graph(spec, pool);
  store_cached_graph(path, key, g);  // best effort
  return g;
}

EdgeList generate_edges_serial(const GeneratorSpec& raw) {
  const GeneratorSpec spec = normalized(raw);
  switch (spec.model) {
    case GenModel::kRmat:
      return rmat(log2_exact(spec.num_vertices, "rmat"), spec.num_edges,
                  spec.quadrants, spec.seed);
    case GenModel::kGrid2d: {
      EdgeList edges = stencil2d(spec.nx, spec.ny);
      if (spec.defects > 0.0) {
        add_local_defects(edges, static_cast<vid_t>(spec.num_vertices),
                          spec.defects, spec.window, spec.seed);
      }
      return edges;
    }
    case GenModel::kGrid3d: {
      EdgeList edges = stencil3d(spec.nx, spec.ny, spec.nz);
      if (spec.defects > 0.0) {
        add_local_defects(edges, static_cast<vid_t>(spec.num_vertices),
                          spec.defects, spec.window, spec.seed);
      }
      return edges;
    }
    case GenModel::kLocalRandom:
      return local_random(static_cast<vid_t>(spec.num_vertices), spec.deg_lo,
                          spec.deg_hi, spec.window, spec.seed);
    case GenModel::kKronecker:
    case GenModel::kBarabasiAlbert:
    case GenModel::kGeometric2d:
    case GenModel::kErdosRenyi:
      break;
  }
  SPECKLE_CHECK(false, std::string("generate_edges_serial covers only the "
                                   "suite's models (rmat, grid2d, grid3d, "
                                   "localrand); '") +
                           gen_model_name(spec.model) +
                           "' generates through generate_graph");
  return {};
}

}  // namespace speckle::graph
