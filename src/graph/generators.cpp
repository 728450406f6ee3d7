#include "graph/generators.hpp"

#include <cmath>
#include <cstddef>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace speckle::graph {

using support::Xoshiro256;

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
      // Jitter each quadrant probability by ±noise/2 and renormalize, as
      // the reference R-MAT generator does to break self-similarity.
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

namespace {

void check_rmat_args(std::uint32_t scale, const RmatParams& params) {
  SPECKLE_CHECK(scale >= 1 && scale <= 31, "rmat scale must be in [1,31]");
  const double sum = params.a + params.b + params.c + params.d;
  SPECKLE_CHECK(std::abs(sum - 1.0) < 1e-6, "rmat parameters must sum to 1");
}

}  // namespace

EdgeList rmat(std::uint32_t scale, std::uint64_t num_edges, const RmatParams& params,
              std::uint64_t seed) {
  check_rmat_args(scale, params);
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(num_edges);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    edges.push_back(rmat_edge(rng, scale, params));
  }
  return edges;
}

EdgeList erdos_renyi(vid_t num_vertices, std::uint64_t num_edges, std::uint64_t seed) {
  SPECKLE_CHECK(num_vertices >= 2, "erdos_renyi needs at least 2 vertices");
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(num_edges);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    vid_t src = static_cast<vid_t>(rng.next_below(num_vertices));
    vid_t dst = static_cast<vid_t>(rng.next_below(num_vertices));
    while (dst == src) dst = static_cast<vid_t>(rng.next_below(num_vertices));
    edges.push_back({src, dst});
  }
  return edges;
}

EdgeList stencil2d(vid_t nx, vid_t ny) {
  SPECKLE_CHECK(nx >= 1 && ny >= 1, "stencil2d needs positive dimensions");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(nx) * ny * 2);
  auto id = [nx](vid_t x, vid_t y) { return y * nx + x; };
  for (vid_t y = 0; y < ny; ++y) {
    for (vid_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) edges.push_back({id(x, y), id(x + 1, y)});
      if (y + 1 < ny) edges.push_back({id(x, y), id(x, y + 1)});
    }
  }
  return edges;
}

EdgeList stencil3d(vid_t nx, vid_t ny, vid_t nz) {
  SPECKLE_CHECK(nx >= 1 && ny >= 1 && nz >= 1, "stencil3d needs positive dimensions");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(nx) * ny * nz * 3);
  auto id = [nx, ny](vid_t x, vid_t y, vid_t z) { return (z * ny + y) * nx + x; };
  for (vid_t z = 0; z < nz; ++z) {
    for (vid_t y = 0; y < ny; ++y) {
      for (vid_t x = 0; x < nx; ++x) {
        if (x + 1 < nx) edges.push_back({id(x, y, z), id(x + 1, y, z)});
        if (y + 1 < ny) edges.push_back({id(x, y, z), id(x, y + 1, z)});
        if (z + 1 < nz) edges.push_back({id(x, y, z), id(x, y, z + 1)});
      }
    }
  }
  return edges;
}

void add_local_defects(EdgeList& edges, vid_t num_vertices, double extra_per_vertex,
                       vid_t window, std::uint64_t seed) {
  SPECKLE_CHECK(window >= 1, "defect window must be >= 1");
  Xoshiro256 rng(seed);
  const auto extra =
      static_cast<std::uint64_t>(extra_per_vertex * static_cast<double>(num_vertices));
  for (std::uint64_t i = 0; i < extra; ++i) {
    vid_t v = static_cast<vid_t>(rng.next_below(num_vertices));
    std::int64_t offset = rng.next_range(1, window);
    if (rng.next_bool(0.5)) offset = -offset;
    std::int64_t w = static_cast<std::int64_t>(v) + offset;
    if (w < 0 || w >= static_cast<std::int64_t>(num_vertices) ||
        w == static_cast<std::int64_t>(v)) {
      continue;  // edge falls off the vertex range; skip rather than wrap
    }
    edges.push_back({v, static_cast<vid_t>(w)});
  }
}

EdgeList local_random(vid_t num_vertices, vid_t deg_lo, vid_t deg_hi, vid_t window,
                      std::uint64_t seed) {
  SPECKLE_CHECK(deg_lo <= deg_hi, "local_random degree range inverted");
  SPECKLE_CHECK(window >= 1, "local_random window must be >= 1");
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * (deg_lo + deg_hi) / 2);
  for (vid_t v = 0; v < num_vertices; ++v) {
    const auto target = static_cast<vid_t>(rng.next_range(deg_lo, deg_hi));
    for (vid_t j = 0; j < target; ++j) {
      std::int64_t offset = rng.next_range(1, window);
      if (rng.next_bool(0.5)) offset = -offset;
      std::int64_t w = static_cast<std::int64_t>(v) + offset;
      if (w < 0 || w >= static_cast<std::int64_t>(num_vertices)) continue;
      edges.push_back({v, static_cast<vid_t>(w)});
    }
  }
  return edges;
}

EdgeList ring_lattice(vid_t num_vertices, vid_t k) {
  SPECKLE_CHECK(num_vertices > 2 * k, "ring_lattice needs n > 2k");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * k);
  for (vid_t v = 0; v < num_vertices; ++v) {
    for (vid_t j = 1; j <= k; ++j) {
      edges.push_back({v, static_cast<vid_t>((v + j) % num_vertices)});
    }
  }
  return edges;
}

EdgeList complete(vid_t num_vertices) {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * (num_vertices - 1) / 2);
  for (vid_t v = 0; v < num_vertices; ++v) {
    for (vid_t w = v + 1; w < num_vertices; ++w) edges.push_back({v, w});
  }
  return edges;
}

}  // namespace speckle::graph
