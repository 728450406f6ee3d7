// Per-model property checks for the GeneratorSpec family (graph/genspec.hpp):
// structural invariants after CSR construction (no self loops or duplicate
// edges, CsrGraph::validate clean), vertex and edge counts within the
// spec's tolerance, degree-distribution shape (BA's power-law tail vs the
// grids' constant interior degree, via coarse histogram bounds), spec
// parsing and normalization, the canonical key, bit-identity of every
// model across thread counts, distinctness across seeds, and the uniform
// seed=0 loud rejection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/genspec.hpp"
#include "graph/suite.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace speckle;
using graph::CsrGraph;
using graph::GeneratorSpec;
using graph::GenModel;

CsrGraph gen(const std::string& text, unsigned threads = 1) {
  support::ThreadPool pool(threads);
  return graph::generate_graph(graph::parse_generator_spec(text, 7), pool);
}

bool same_graph(const CsrGraph& a, const CsrGraph& b) {
  return std::ranges::equal(a.row_offsets(), b.row_offsets()) &&
         std::ranges::equal(a.col_indices(), b.col_indices());
}

double avg_degree(const CsrGraph& g) {
  return static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_vertices());
}

/// Degree histogram in power-of-two buckets: bucket b counts vertices with
/// degree in [2^b, 2^(b+1)).
std::vector<std::size_t> degree_histogram(const CsrGraph& g) {
  std::vector<std::size_t> buckets(33, 0);
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    const graph::vid_t d = g.degree(v);
    std::size_t b = 0;
    while ((2u << b) <= d) ++b;
    ++buckets[b];
  }
  while (!buckets.empty() && buckets.back() == 0) buckets.pop_back();
  return buckets;
}

// Every model, once: CSR invariants hold (validate() re-checks no self
// loops, sorted deduplicated adjacency, in-range columns) and the vertex
// count matches the spec exactly.
struct ModelCase {
  const char* spec;
  std::uint64_t expect_n;
};

std::string model_name(const ModelCase& c) {
  const std::string spec(c.spec);
  return spec.substr(0, spec.find(':'));
}

// Without this gtest prints the case as raw bytes, pointer included, so the
// listed test names would change with every address-space layout.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << model_name(c); }

class EveryModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(EveryModel, CsrInvariantsAndVertexCount) {
  const CsrGraph g = gen(GetParam().spec);
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(g.num_vertices(), GetParam().expect_n);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_symmetric());
}

TEST_P(EveryModel, BitIdenticalAcrossThreadCounts) {
  const CsrGraph serial = gen(GetParam().spec, 1);
  const CsrGraph parallel = gen(GetParam().spec, 4);
  EXPECT_TRUE(same_graph(serial, parallel));
}

TEST_P(EveryModel, DistinctAcrossSeeds) {
  // Grids only differ through their defect edges, which every listed grid
  // case includes; the deterministic stencil part is identical by design.
  const std::string base = GetParam().spec;
  const CsrGraph a = gen(base + ",seed=11");
  const CsrGraph b = gen(base + ",seed=12");
  EXPECT_FALSE(same_graph(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Models, EveryModel,
    ::testing::Values(
        ModelCase{"rmat:scale=12,deg=8", 4096},
        ModelCase{"kron:scale=12,deg=8", 4096},
        ModelCase{"ba:n=5000,attach=3", 5000},
        ModelCase{"rgg2d:n=4000,deg=9", 4000},
        ModelCase{"grid2d:nx=60,ny=70,defects=0.4", 4200},
        ModelCase{"grid3d:nx=15,ny=16,nz=17,defects=0.5", 4080},
        ModelCase{"localrand:n=5000,deglo=1,deghi=7", 5000},
        ModelCase{"er:n=4000,deg=8", 4000}),
    [](const auto& info) { return model_name(info.param); });

// --- degree-distribution shape -------------------------------------------

TEST(GeneratorShape, GridInteriorDegreeIsConstant) {
  // Plain stencils: every interior vertex has exactly 4 (2-D) or 6 (3-D)
  // neighbors; no vertex exceeds that.
  const CsrGraph g2 = gen("grid2d:nx=50,ny=50");
  EXPECT_EQ(g2.max_degree(), 4u);
  std::size_t interior2 = 0;
  for (graph::vid_t v = 0; v < g2.num_vertices(); ++v) {
    interior2 += g2.degree(v) == 4 ? 1 : 0;
  }
  EXPECT_EQ(interior2, 48u * 48u);

  const CsrGraph g3 = gen("grid3d:nx=12,ny=12,nz=12");
  EXPECT_EQ(g3.max_degree(), 6u);
}

TEST(GeneratorShape, BaHasAPowerLawTailGridsDoNot) {
  // BA's preferential attachment concentrates degree into hubs: the max
  // degree is far above the mean, and the power-of-two histogram keeps
  // nonempty buckets well past the mean bucket. A (defected) grid's
  // histogram dies right after the mean.
  const CsrGraph ba = gen("ba:n=20000,attach=3");
  const double mean = avg_degree(ba);
  EXPECT_GT(static_cast<double>(ba.max_degree()), 8.0 * mean);
  const auto hist = degree_histogram(ba);
  std::size_t mean_bucket = 0;
  while ((2.0 * (1u << mean_bucket)) <= mean) ++mean_bucket;
  EXPECT_GE(hist.size(), mean_bucket + 4) << "BA tail collapsed";

  const CsrGraph grid = gen("grid2d:nx=140,ny=140,defects=0.4");
  EXPECT_LE(grid.max_degree(), 12u);  // 4 + a few defect edges
  const auto grid_hist = degree_histogram(grid);
  EXPECT_LE(grid_hist.size(), 5u);  // no bucket at degree >= 16
}

TEST(GeneratorShape, EdgeCountsTrackTheRequestedDegree) {
  // Directed CSR degree should land near the spec's deg= target. Bounds
  // are coarse (dedup and boundary effects shave edges; rgg2d is a
  // Poisson sample).
  const std::map<std::string, double> cases = {
      {"rmat:scale=13,deg=10", 10.0},  // dedup + self loops shave ~15%
      {"er:n=8000,deg=10", 10.0},
      {"rgg2d:n=8000,deg=10", 10.0},
      {"ba:n=8000,deg=6", 6.0},
      {"localrand:n=8000,deg=8", 8.0},
  };
  for (const auto& [spec, target] : cases) {
    SCOPED_TRACE(spec);
    const double got = avg_degree(gen(spec));
    EXPECT_GT(got, 0.55 * target);
    EXPECT_LT(got, 1.35 * target);
  }
}

// --- parsing and normalization -------------------------------------------

TEST(GeneratorSpecParse, SuffixesScaleAndDefaults) {
  const GeneratorSpec s1 = graph::parse_generator_spec("ba:n=16k,attach=3", 7);
  EXPECT_EQ(s1.model, GenModel::kBarabasiAlbert);
  EXPECT_EQ(s1.num_vertices, 16000u);
  EXPECT_EQ(s1.attach, 3u);
  EXPECT_EQ(s1.seed, 7u);  // default seed flows in

  const GeneratorSpec s2 = graph::parse_generator_spec("kron:scale=18,deg=12,seed=42", 7);
  EXPECT_EQ(s2.num_vertices, 1u << 18);
  EXPECT_EQ(s2.num_edges, (1ull << 18) * 6);  // deg/2 undirected draws
  EXPECT_EQ(s2.seed, 42u);

  // grid2d derives a square from n; rgg2d derives its radius from deg.
  const GeneratorSpec s3 = graph::parse_generator_spec("grid2d:n=10000", 7);
  EXPECT_EQ(s3.nx, 100u);
  EXPECT_EQ(s3.ny, 100u);
  const GeneratorSpec s4 = graph::parse_generator_spec("rgg2d:n=10000,deg=8", 7);
  EXPECT_NEAR(s4.radius, std::sqrt(8.0 / (3.14159265 * 10000.0)), 1e-9);
}

TEST(GeneratorSpecParse, CanonicalKeyIsInjectiveOverParameters) {
  const auto key = [](const std::string& text) {
    return graph::canonical_spec_key(graph::parse_generator_spec(text, 7));
  };
  EXPECT_EQ(key("ba:n=1000,attach=3"), key("ba:n=1000,attach=3"));
  EXPECT_NE(key("ba:n=1000,attach=3"), key("ba:n=1000,attach=4"));
  EXPECT_NE(key("ba:n=1000,attach=3"), key("ba:n=1001,attach=3"));
  EXPECT_NE(key("ba:n=1000,attach=3"), key("ba:n=1000,attach=3,seed=8"));
  EXPECT_NE(key("rmat:scale=10"), key("kron:scale=10"));
  EXPECT_NE(key("rmat:scale=10,a=0.45,b=0.15,c=0.15,d=0.25"),
            key("rmat:scale=10"));
}

TEST(GeneratorSpecParse, FootprintBoundsHold) {
  // The footprint estimate must upper-bound what generation actually
  // produces — a caller that refuses specs over a memory budget trusts it.
  for (const char* text :
       {"rmat:scale=12,deg=8", "ba:n=5000,attach=3", "rgg2d:n=4000,deg=9",
        "grid2d:nx=60,ny=70,defects=0.4", "localrand:n=5000", "er:n=4000,deg=8"}) {
    SCOPED_TRACE(text);
    const GeneratorSpec spec = graph::parse_generator_spec(text, 7);
    const graph::SpecFootprint fp = graph::estimate_footprint(spec);
    const CsrGraph g = gen(text);
    EXPECT_LE(g.num_edges(), fp.directed_edges);
    EXPECT_GT(fp.build_peak_bytes, g.num_edges() * sizeof(graph::vid_t));
  }
}

TEST(GeneratorSpecParseDeath, MalformedSpecsAreRejectedLoudly) {
  EXPECT_DEATH(graph::parse_generator_spec("nosuch:n=100", 7), "unknown generator model");
  EXPECT_DEATH(graph::parse_generator_spec("ba:bogus=1", 7), "unknown spec key");
  EXPECT_DEATH(graph::parse_generator_spec("ba:n", 7), "not key=value");
  EXPECT_DEATH(graph::parse_generator_spec("ba:n=12q", 7), "malformed value");
  EXPECT_DEATH(graph::parse_generator_spec("rmat:n=1000", 7), "power-of-two");
  EXPECT_DEATH(graph::parse_generator_spec("rmat:scale=10,a=0.9", 7), "sum to 1");
  EXPECT_DEATH(graph::parse_generator_spec("er:n=-5", 7), "malformed value");
  // Values that used to wrap silently: 18446744073709552k is 384 mod 2^64,
  // nx=4294967298 is 2 mod 2^32, and this grid3d's nx*ny*nz is 2^64 + 4.
  EXPECT_DEATH(graph::parse_generator_spec("er:n=18446744073709552k", 7),
               "overflows 64 bits");
  EXPECT_DEATH(graph::parse_generator_spec("grid2d:nx=4294967298,ny=2", 7),
               "overflows 32 bits");
  EXPECT_DEATH(graph::parse_generator_spec("ba:attach=5000000k", 7),
               "overflows 32 bits");
  EXPECT_DEATH(graph::parse_generator_spec(
                   "grid3d:nx=111620,ny=429509837,nz=384773", 7),
               "nx\\*ny\\*nz overflows");
}

TEST(GeneratorSpecParseDeath, SeedZeroIsRejectedAtEveryEntryPoint) {
  // The suite's seed rule applies uniformly to all generator entry points:
  // parse (explicit and via default), normalized, and the suite spec.
  EXPECT_DEATH(graph::parse_generator_spec("ba:n=1000,seed=0", 7), "seed 0");
  EXPECT_DEATH(graph::parse_generator_spec("ba:n=1000", 0), "seed 0");
  GeneratorSpec spec;
  spec.model = GenModel::kErdosRenyi;
  spec.num_vertices = 100;
  spec.seed = 0;
  EXPECT_DEATH(graph::normalized(spec), "seed 0");
  EXPECT_DEATH(graph::suite_generator_spec("Hamrle3", 64, 0), "seed 0");
}

// --- pinned bytes ---------------------------------------------------------

/// mix64 folded over the CSR arrays: any shift in a generator's stream
/// changes it.
std::uint64_t csr_hash(const CsrGraph& g) {
  std::uint64_t h = 0;
  for (const graph::eid_t x : g.row_offsets()) h = support::mix64(h ^ x);
  for (const graph::vid_t x : g.col_indices()) h = support::mix64(h ^ x);
  return h;
}

CsrGraph gen_serial(const std::string& text) {
  const GeneratorSpec spec = graph::parse_generator_spec(text, 7);
  return graph::build_csr(static_cast<graph::vid_t>(spec.num_vertices),
                          graph::generate_edges_serial(spec));
}

TEST(PinnedBytes, SuiteGraphs) {
  const std::map<std::string, std::uint64_t> expect = {
      {"rmat-er", 0x49e398daef3d88e0ULL},   {"rmat-g", 0x1defa92b3a3338c3ULL},
      {"thermal2", 0xedb3ea3afbbce7c5ULL},  {"atmosmodd", 0x057123140ea313aeULL},
      {"Hamrle3", 0x09a42b65b27ceb43ULL},   {"G3_circuit", 0x0ec20e2263b80894ULL},
  };
  for (const auto& [name, hash] : expect) {
    SCOPED_TRACE(name);
    EXPECT_EQ(csr_hash(graph::make_suite_graph(name, 64, 1)), hash);
  }
}

TEST(PinnedBytes, ShardedGenerationAtOneAndFourThreads) {
  // 600x600 spans two row chunks, so chunk seeding and the telescoping
  // defect share across a chunk boundary are pinned too.
  const std::map<std::string, std::uint64_t> expect = {
      {"kron:scale=11,deg=8", 0x809c97807f79ce4cULL},
      {"ba:n=3000,attach=3", 0x85701525bac5d7aaULL},
      {"rgg2d:n=3000,deg=8", 0xd1c65787032ae20fULL},
      {"grid2d:nx=40,ny=30,defects=0.4", 0x7f9f954fc5fc5b71ULL},
      {"grid2d:nx=600,ny=600,defects=0.4", 0x5221c005e29e3f43ULL},
      {"grid2d:nx=43,ny=28,defects=0.375", 0x81d3b181f69aa66dULL},
      {"grid3d:nx=9,ny=10,nz=11,defects=0.125", 0x9d95e1a2825c5bb0ULL},
  };
  for (const auto& [spec, hash] : expect) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(csr_hash(gen(spec, 1)), hash);
    EXPECT_EQ(csr_hash(gen(spec, 4)), hash);
  }
}

TEST(PinnedBytes, SerialGridDefectCountTruncates) {
  // rate * n = 451.5 (2-D) and 123.75 (3-D): the serial stream draws
  // trunc(rate * n) defects where the sharded one draws llround(rate * n);
  // these pins and the sharded ones above hold both rules in place.
  const std::map<std::string, std::uint64_t> expect = {
      {"grid2d:nx=43,ny=28,defects=0.375", 0x5f49cd1ecf12da8bULL},
      {"grid3d:nx=9,ny=10,nz=11,defects=0.125", 0x70479e350c90c360ULL},
  };
  for (const auto& [spec, hash] : expect) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(csr_hash(gen_serial(spec)), hash);
  }
}

// --- suite integration ----------------------------------------------------

TEST(SuiteSpec, SuiteGraphsRebuildByteIdenticalFromTheirSpecs) {
  // make_suite_graph is exactly the serial schedule of its spec. This
  // compares two routes to the same stream; PinnedBytes.SuiteGraphs (and
  // the CI goldens) are what pin the bytes themselves.
  for (const char* name : {"rmat-g", "thermal2", "Hamrle3", "G3_circuit"}) {
    SCOPED_TRACE(name);
    const GeneratorSpec spec = graph::suite_generator_spec(name, 64, 5);
    const CsrGraph via_spec =
        graph::build_csr(static_cast<graph::vid_t>(spec.num_vertices),
                         graph::generate_edges_serial(spec));
    EXPECT_TRUE(same_graph(via_spec, graph::make_suite_graph(name, 64, 5)));
  }
}

TEST(SuiteSpec, RngFreeModelsAgreeAcrossSchedules) {
  // ba and rgg2d draw from stateless hashes, not the rng, so the serial
  // schedule's one chunk must equal the sharded chunks concatenated.
  for (const char* text : {"ba:n=3000,attach=3", "rgg2d:n=3000,deg=8"}) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(same_graph(gen_serial(text), gen(text, 4)));
  }
}

TEST(SuiteSpec, SerialAndShardedPathsAgreeOnStencilBytes) {
  // Deterministic models (no RNG): the sharded pipeline must reproduce
  // the serial build exactly, not just statistically.
  GeneratorSpec spec;
  spec.model = GenModel::kGrid3d;
  spec.nx = 11;
  spec.ny = 12;
  spec.nz = 13;
  spec.seed = 5;
  spec = graph::normalized(spec);
  support::ThreadPool pool(4);
  const CsrGraph sharded = graph::generate_graph(spec, pool);
  const CsrGraph serial =
      graph::build_csr(static_cast<graph::vid_t>(spec.num_vertices),
                       graph::generate_edges_serial(spec));
  EXPECT_TRUE(same_graph(sharded, serial));
}

}  // namespace
