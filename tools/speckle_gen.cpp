/// \file speckle_gen.cpp
/// Graph generator CLI: materialize any suite graph or generator spec as a
/// Matrix Market file (so external tools — or this library on another
/// machine — can consume identical inputs).
///
/// Usage:
///   speckle_gen --suite=rmat-g --denom=8 --out=rmat-g.mtx
///   speckle_gen --spec=ba:n=1m,attach=4 --threads=4 --out=ba.mtx
///   speckle_gen --spec=rmat:scale=18,edges=2m,a=0.45,b=0.15,c=0.15,d=0.25
///               --out=my.mtx
///   speckle_gen --spec=grid3d:nx=64,ny=64,nz=64 --out=grid.mtx
///   speckle_gen --spec=rgg2d:n=10000,radius=0.02 --out=disk.mtx
///
/// --spec takes a GeneratorSpec string (graph/genspec.hpp) and runs the
/// sharded parallel pipeline, honoring --threads=N (0 = one per hardware
/// thread); the output is bit-identical at every thread count. The --suite
/// path replays the historical single-stream generators, where --threads
/// is accepted only for command-line symmetry with speckle_color and has
/// no effect.

#include <algorithm>
#include <iostream>
#include <thread>

#include "graph/analysis.hpp"
#include "graph/genspec.hpp"
#include "graph/matrix_market.hpp"
#include "graph/suite.hpp"
#include "support/options.hpp"
#include "support/threadpool.hpp"

int main(int argc, char** argv) {
  using namespace speckle;
  using support::Options;
  Options opts(argc, argv);
  const std::string suite = opts.get_string("suite", "");
  const std::string spec_text = opts.get_string("spec", "");
  const std::string out = opts.get_string("out", "");
  const auto denom = opts.get_uint<std::uint32_t>("denom", 8);
  const auto seed = opts.get_uint<std::uint64_t>("seed", 1);
  const auto threads = opts.get_uint<std::uint32_t>("threads", 0, support::kMaxThreads);
  if (spec_text.empty()) {
    opts.validate({"suite", "denom", "out", "seed", "threads"});
  } else {
    opts.validate({"spec", "out", "seed", "threads"});
  }
  if (seed == 0) {
    Options::reject("seed", "0 is reserved (the suite derives sub-seeds as "
                            "seed+k / seed*k products, which seed 0 "
                            "collapses); pass a nonzero seed");
  }
  if (out.empty()) Options::reject("out", "--out=<path.mtx> is required");
  if (suite.empty() == spec_text.empty()) {
    Options::reject("suite", "pass exactly one of --suite=<name> or "
                             "--spec=<model:key=value,...>");
  }
  if (!suite.empty() && graph::find_suite_entry(suite) == nullptr) {
    Options::reject("suite", "unknown suite graph '" + suite +
                                 "'; accepted: " + graph::suite_names());
  }
  if (!suite.empty() && !graph::valid_suite_denom(denom)) {
    Options::reject("denom", "expects a power of two <= 2^19, got " +
                                 std::to_string(denom));
  }

  graph::CsrGraph g;
  if (!spec_text.empty()) {
    // parse_generator_spec rejects seed 0 (explicit or inherited) loudly.
    const graph::GeneratorSpec spec =
        graph::parse_generator_spec(spec_text, seed);
    support::ThreadPool pool(
        threads != 0 ? threads
                     : std::max(1u, std::thread::hardware_concurrency()));
    g = graph::generate_graph(spec, pool);
  } else {
    g = graph::make_suite_graph(suite, denom, seed);
  }

  const graph::DegreeReport deg = graph::analyze_degrees(g);
  std::cout << "generated: n=" << deg.num_vertices << " m=" << deg.num_edges
            << " deg[" << deg.min_degree << "," << deg.max_degree
            << "] avg=" << deg.avg_degree << " var=" << deg.degree_variance << "\n";
  graph::write_matrix_market(g, out);
  std::cout << "wrote " << out << "\n";
  return 0;
}
