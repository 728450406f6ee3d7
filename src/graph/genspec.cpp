#include "graph/genspec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <iomanip>
#include <limits>
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
  // stoull would also take a sign or leading blanks ("-1" wraps to 2^64-1).
  SPECKLE_CHECK(used == digits.size() && !digits.empty() &&
                    std::isdigit(static_cast<unsigned char>(digits.front())),
                "malformed value '" + value + "' for spec key '" + key + "'");
  SPECKLE_CHECK(parsed <= std::numeric_limits<std::uint64_t>::max() / mult,
                "value '" + value + "' for spec key '" + key +
                    "' overflows 64 bits");
  return parsed * mult;
}

/// parse_size for the 32-bit fields (grid dimensions, attach, window,
/// degree range).
std::uint32_t parse_u32(const std::string& value, const std::string& key) {
  const std::uint64_t parsed = parse_size(value, key);
  SPECKLE_CHECK(parsed <= std::numeric_limits<std::uint32_t>::max(),
                "value '" + value + "' for spec key '" + key +
                    "' overflows 32 bits");
  return static_cast<std::uint32_t>(parsed);
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
        spec.attach = parse_u32(value, key);
      } else if (key == "radius") {
        spec.radius = parse_real(value, key);
      } else if (key == "nx") {
        spec.nx = parse_u32(value, key);
      } else if (key == "ny") {
        spec.ny = parse_u32(value, key);
      } else if (key == "nz") {
        spec.nz = parse_u32(value, key);
      } else if (key == "defects") {
        spec.defects = parse_real(value, key);
      } else if (key == "window") {
        spec.window = parse_u32(value, key);
      } else if (key == "deglo") {
        spec.deg_lo = parse_u32(value, key);
      } else if (key == "deghi") {
        spec.deg_hi = parse_u32(value, key);
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
      const std::uint64_t plane = static_cast<std::uint64_t>(spec.nx) * spec.ny;
      SPECKLE_CHECK(plane <= std::numeric_limits<std::uint64_t>::max() / spec.nz,
                    "grid3d nx*ny*nz overflows 64 bits");
      spec.num_vertices = plane * spec.nz;
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
// Edge drawing: one body per model. A body draws the part [lo, hi) of its
// model's work range (edge draws, vertices, grid rows/planes or point-cell
// rows) into `out`. The two RNG schedules below run the same bodies; they
// differ only in how they cut the range and seed `rng`.
// ---------------------------------------------------------------------------

namespace {

/// One R-MAT endpoint pair: `scale` recursion levels over the quadrant
/// probabilities, each level jittered by ±noise/2 and renormalized, as the
/// reference generator does to break self-similarity.
Edge rmat_edge(Xoshiro256& rng, std::uint32_t scale, const RmatParams& params) {
  vid_t src = 0;
  vid_t dst = 0;
  double a = params.a, b = params.b, c = params.c, d = params.d;
  for (std::uint32_t level = 0; level < scale; ++level) {
    const double r = rng.next_double();
    src <<= 1;
    dst <<= 1;
    if (r < a) {
      // top-left quadrant: no bits set
    } else if (r < a + b) {
      dst |= 1;
    } else if (r < a + b + c) {
      src |= 1;
    } else {
      src |= 1;
      dst |= 1;
    }
    if (params.noise > 0.0) {
      auto jitter = [&](double p) {
        return p * (1.0 - params.noise / 2.0 + params.noise * rng.next_double());
      };
      a = jitter(a);
      b = jitter(b);
      c = jitter(c);
      d = jitter(d);
      const double total = a + b + c + d;
      a /= total;
      b /= total;
      c /= total;
      d /= total;
    }
  }
  return {src, dst};
}

void draw_rmat(const GeneratorSpec& spec, Xoshiro256& rng, std::uint64_t lo,
               std::uint64_t hi, EdgeList& out) {
  const std::uint32_t scale = log2_exact(spec.num_vertices, "rmat/kron");
  const RmatParams params = spec.quadrants;
  out.reserve(hi - lo);
  for (std::uint64_t i = lo; i < hi; ++i) {
    out.push_back(rmat_edge(rng, scale, params));
  }
}

void draw_er(const GeneratorSpec& spec, Xoshiro256& rng, std::uint64_t lo,
             std::uint64_t hi, EdgeList& out) {
  const std::uint64_t n = spec.num_vertices;
  out.reserve(hi - lo);
  for (std::uint64_t i = lo; i < hi; ++i) {
    const auto src = static_cast<vid_t>(rng.next_below(n));
    auto dst = static_cast<vid_t>(rng.next_below(n));
    while (dst == src) dst = static_cast<vid_t>(rng.next_below(n));
    out.push_back({src, dst});
  }
}

// Barabási–Albert, communication-free (Batagelj–Brandes slot resolution;
// the scheme KaGen's barabassi.h parallelizes with). Edge slot i belongs
// to vertex i/attach; its target is found by repeatedly re-drawing earlier
// slots' uniform picks from a stateless hash until an even endpoint-array
// position — a source slot, whose vertex is just index arithmetic — is
// hit. Stateless, so it needs no rng.

/// Uniform in [0, 2*slot + 1), stateless per (seed, slot).
std::uint64_t ba_draw(std::uint64_t seed, std::uint64_t slot) {
  const std::uint64_t x = mix64(seed ^ mix64(slot + 0xba5eba11ULL));
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(x) * (2 * slot + 1);
  return static_cast<std::uint64_t>(wide >> 64);
}

void draw_ba(const GeneratorSpec& spec, std::uint64_t lo, std::uint64_t hi,
             EdgeList& out) {
  const std::uint32_t attach = spec.attach;
  out.reserve((hi - lo) * attach);
  for (std::uint64_t v = lo; v < hi; ++v) {
    for (std::uint32_t k = 0; k < attach; ++k) {
      std::uint64_t r = ba_draw(spec.seed, v * attach + k);
      while (r & 1) r = ba_draw(spec.seed, (r - 1) / 2);  // odd = a target slot
      const auto w = static_cast<vid_t>((r / 2) / attach);  // even = a source slot
      if (w != static_cast<vid_t>(v)) out.push_back({static_cast<vid_t>(v), w});
    }
  }
}

void draw_localrand(const GeneratorSpec& spec, Xoshiro256& rng, std::uint64_t lo,
                    std::uint64_t hi, EdgeList& out) {
  const auto n = static_cast<std::int64_t>(spec.num_vertices);
  const std::uint32_t deg_lo = spec.deg_lo, deg_hi = spec.deg_hi;
  const std::uint32_t window = spec.window;
  out.reserve((hi - lo) * (deg_lo + deg_hi) / 2);
  for (std::uint64_t v = lo; v < hi; ++v) {
    const auto target = static_cast<vid_t>(rng.next_range(deg_lo, deg_hi));
    for (vid_t j = 0; j < target; ++j) {
      std::int64_t offset = rng.next_range(1, window);
      if (rng.next_bool(0.5)) offset = -offset;
      const std::int64_t w = static_cast<std::int64_t>(v) + offset;
      if (w < 0 || w >= n) continue;
      out.push_back({static_cast<vid_t>(v), static_cast<vid_t>(w)});
    }
  }
}

/// `count` local "defect" edges from uniform vertices in [v_lo, v_hi) to a
/// vertex within ±window; an endpoint off the vertex range is skipped
/// rather than wrapped. Roughens the stencils into FEM/circuit-like degree
/// distributions.
void draw_defects(const GeneratorSpec& spec, Xoshiro256& rng, std::uint64_t v_lo,
                  std::uint64_t v_hi, std::uint64_t count, EdgeList& out) {
  const auto n = static_cast<std::int64_t>(spec.num_vertices);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto v = static_cast<vid_t>(v_lo + rng.next_below(v_hi - v_lo));
    std::int64_t offset = rng.next_range(1, spec.window);
    if (rng.next_bool(0.5)) offset = -offset;
    const std::int64_t w = static_cast<std::int64_t>(v) + offset;
    if (w < 0 || w >= n || w == static_cast<std::int64_t>(v)) continue;
    out.push_back({v, static_cast<vid_t>(w)});
  }
}

/// 5-point stencil rows [y_lo, y_hi), then `defects` defect edges.
void draw_grid2d(const GeneratorSpec& spec, Xoshiro256& rng, std::uint64_t y_lo,
                 std::uint64_t y_hi, std::uint64_t defects, EdgeList& out) {
  const std::uint64_t nx = spec.nx, ny = spec.ny;
  out.reserve((y_hi - y_lo) * nx * 2 + defects);
  auto id = [nx](std::uint64_t x, std::uint64_t y) {
    return static_cast<vid_t>(y * nx + x);
  };
  for (std::uint64_t y = y_lo; y < y_hi; ++y) {
    for (std::uint64_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) out.push_back({id(x, y), id(x + 1, y)});
      if (y + 1 < ny) out.push_back({id(x, y), id(x, y + 1)});
    }
  }
  draw_defects(spec, rng, y_lo * nx, y_hi * nx, defects, out);
}

/// 7-point stencil planes [z_lo, z_hi), then `defects` defect edges.
void draw_grid3d(const GeneratorSpec& spec, Xoshiro256& rng, std::uint64_t z_lo,
                 std::uint64_t z_hi, std::uint64_t defects, EdgeList& out) {
  const std::uint64_t nx = spec.nx, ny = spec.ny, nz = spec.nz;
  out.reserve((z_hi - z_lo) * nx * ny * 3 + defects);
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
  draw_defects(spec, rng, z_lo * nx * ny, z_hi * nx * ny, defects, out);
}

/// Unit-interval coordinate from a stateless hash (rgg2d point clouds).
double unit_coord(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix64(seed + index) >> 11) * 0x1.0p-53;
}

/// rgg2d's point cloud, bucketed into radius-sized cells. Coordinates come
/// from unit_coord, so the cloud needs no rng.
struct PointCells {
  double radius = 0.0;
  std::uint64_t cells = 0;  ///< cells per side
  std::vector<double> xs, ys;
  std::vector<eid_t> cell_start;  ///< CSR-style offsets into cell_points
  std::vector<vid_t> cell_points;
};

std::uint64_t cells_per_side(double radius) {
  return static_cast<std::uint64_t>(std::ceil(1.0 / radius));
}

PointCells bucket_points(const GeneratorSpec& spec, support::ThreadPool& pool) {
  const std::uint64_t n = spec.num_vertices;
  PointCells pc;
  pc.radius = spec.radius;
  pc.cells = cells_per_side(spec.radius);
  pc.xs.resize(n);
  pc.ys.resize(n);
  const std::uint64_t coord_chunks = chunks_for(n, kVertexGrain);
  pool.parallel_for_deterministic(coord_chunks, [&](std::size_t c, unsigned) {
    const auto [lo, hi] = chunk_range(n, coord_chunks, c);
    for (std::uint64_t v = lo; v < hi; ++v) {
      pc.xs[v] = unit_coord(spec.seed, 2 * v + 1);
      pc.ys[v] = unit_coord(spec.seed, 2 * v + 2);
    }
  });
  // Two serial counting-sort passes, ascending v, so the per-cell lists
  // are canonical.
  auto cell_of = [&](std::uint64_t v) {
    const auto cx = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(pc.xs[v] / pc.radius), pc.cells - 1);
    const auto cy = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(pc.ys[v] / pc.radius), pc.cells - 1);
    return cy * pc.cells + cx;
  };
  pc.cell_start.assign(pc.cells * pc.cells + 1, 0);
  for (std::uint64_t v = 0; v < n; ++v) ++pc.cell_start[cell_of(v) + 1];
  for (std::size_t i = 1; i < pc.cell_start.size(); ++i) {
    pc.cell_start[i] += pc.cell_start[i - 1];
  }
  pc.cell_points.resize(n);
  std::vector<eid_t> cursor(pc.cell_start.begin(), pc.cell_start.end() - 1);
  for (std::uint64_t v = 0; v < n; ++v) {
    pc.cell_points[cursor[cell_of(v)]++] = static_cast<vid_t>(v);
  }
  return pc;
}

/// Cell rows [cy_lo, cy_hi): each vertex scans its 3x3 cell neighborhood
/// and emits each pair (v, w), w > v, within the radius once.
void draw_rgg2d(const PointCells& pc, std::uint64_t cy_lo, std::uint64_t cy_hi,
                EdgeList& out) {
  const auto cells = static_cast<std::int64_t>(pc.cells);
  const double r2 = pc.radius * pc.radius;
  for (std::int64_t cy = static_cast<std::int64_t>(cy_lo);
       cy < static_cast<std::int64_t>(cy_hi); ++cy) {
    for (std::int64_t cx = 0; cx < cells; ++cx) {
      const std::int64_t cell = cy * cells + cx;
      for (eid_t i = pc.cell_start[cell]; i < pc.cell_start[cell + 1]; ++i) {
        const vid_t v = pc.cell_points[i];
        for (std::int64_t ncy = cy - 1; ncy <= cy + 1; ++ncy) {
          for (std::int64_t ncx = cx - 1; ncx <= cx + 1; ++ncx) {
            if (ncx < 0 || ncy < 0 || ncx >= cells || ncy >= cells) continue;
            const std::int64_t ncell = ncy * cells + ncx;
            for (eid_t j = pc.cell_start[ncell]; j < pc.cell_start[ncell + 1]; ++j) {
              const vid_t w = pc.cell_points[j];
              if (w <= v) continue;  // emit each pair once
              const double ddx = pc.xs[v] - pc.xs[w];
              const double ddy = pc.ys[v] - pc.ys[w];
              if (ddx * ddx + ddy * ddy <= r2) out.push_back({v, w});
            }
          }
        }
      }
    }
  }
}

/// A model's work range, and how the sharded schedule cuts and seeds it.
struct WorkRange {
  std::uint64_t items = 0;          ///< size of the range a body iterates
  std::uint64_t grain = 1;          ///< items per sharded chunk
  std::uint64_t salt = 0;           ///< chunk_rng salt
  std::uint64_t item_vertices = 0;  ///< grids: vertices per row/plane
};

WorkRange work_range(const GeneratorSpec& spec) {
  const std::uint64_t nx = spec.nx, ny = spec.ny;
  switch (spec.model) {
    case GenModel::kRmat:
    case GenModel::kKronecker:
      return {spec.num_edges, kEdgeGrain, 0x41, 0};
    case GenModel::kErdosRenyi:
      return {spec.num_edges, kEdgeGrain, 0x45, 0};
    case GenModel::kBarabasiAlbert:
      return {spec.num_vertices, kVertexGrain, 0, 0};
    case GenModel::kLocalRandom:
      return {spec.num_vertices, kVertexGrain, 0x4c, 0};
    case GenModel::kGeometric2d:
      return {cells_per_side(spec.radius), 1, 0, 0};
    case GenModel::kGrid2d:
      return {ny, std::max<std::uint64_t>(1, kVertexGrain / nx), 0x32, nx};
    case GenModel::kGrid3d:
      return {spec.nz, std::max<std::uint64_t>(1, kVertexGrain / (nx * ny)), 0x33,
              nx * ny};
  }
  SPECKLE_UNREACHABLE("bad GenModel");
}

/// The two RNG schedules over the same bodies.
enum class Schedule {
  /// generate_shards: the fixed chunk plan, chunk_rng per chunk, and a
  /// telescoping llround(rate * v) defect share that sums to
  /// llround(rate * n) over all chunks.
  kSharded,
  /// generate_edges_serial: one chunk over the whole range, one
  /// Xoshiro256(seed) stream, and trunc(rate * n) defects — the suite's
  /// historical streams.
  kSerial,
};

std::vector<EdgeList> draw_shards(const GeneratorSpec& spec, support::ThreadPool& pool,
                                  Schedule schedule) {
  const WorkRange range = work_range(spec);
  const bool serial = schedule == Schedule::kSerial;
  const std::uint64_t chunks = serial ? 1 : chunks_for(range.items, range.grain);
  const PointCells points = spec.model == GenModel::kGeometric2d
                                ? bucket_points(spec, pool)
                                : PointCells{};
  const double rate = spec.defects > 0.0 ? spec.defects : 0.0;
  auto share = [&](std::uint64_t item) {
    return static_cast<std::uint64_t>(
        std::llround(rate * static_cast<double>(item * range.item_vertices)));
  };
  std::vector<EdgeList> shards(chunks);
  pool.parallel_for_deterministic(chunks, [&](std::size_t c, unsigned) {
    const auto [lo, hi] = chunk_range(range.items, chunks, c);
    Xoshiro256 rng = serial ? Xoshiro256(spec.seed) : chunk_rng(spec.seed, range.salt, c);
    const std::uint64_t defects =
        serial ? static_cast<std::uint64_t>(rate * static_cast<double>(spec.num_vertices))
               : share(hi) - share(lo);
    EdgeList& out = shards[c];
    switch (spec.model) {
      case GenModel::kRmat:
      case GenModel::kKronecker: draw_rmat(spec, rng, lo, hi, out); break;
      case GenModel::kErdosRenyi: draw_er(spec, rng, lo, hi, out); break;
      case GenModel::kBarabasiAlbert: draw_ba(spec, lo, hi, out); break;
      case GenModel::kLocalRandom: draw_localrand(spec, rng, lo, hi, out); break;
      case GenModel::kGeometric2d: draw_rgg2d(points, lo, hi, out); break;
      case GenModel::kGrid2d: draw_grid2d(spec, rng, lo, hi, defects, out); break;
      case GenModel::kGrid3d: draw_grid3d(spec, rng, lo, hi, defects, out); break;
    }
  });
  return shards;
}

}  // namespace

std::vector<EdgeList> generate_shards(const GeneratorSpec& raw,
                                      support::ThreadPool& pool) {
  return draw_shards(normalized(raw), pool, Schedule::kSharded);
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
  support::ThreadPool inline_pool(1);  // no workers: the one chunk runs here
  return std::move(draw_shards(normalized(raw), inline_pool, Schedule::kSerial).front());
}

}  // namespace speckle::graph
