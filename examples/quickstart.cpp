/// \file quickstart.cpp
/// Minimal end-to-end tour of the library:
///   1. generate (or load) a graph,
///   2. color it with the paper's best scheme (D-ldg) on the simulated GPU,
///   3. verify the coloring and compare against the sequential baseline.
///
/// Usage:
///   quickstart [--graph=path.mtx] [--suite=rmat-er] [--denom=64]
///              [--scheme=D-ldg] [--block=128]

#include <iostream>

#include "coloring/runner.hpp"
#include "graph/analysis.hpp"
#include "graph/matrix_market.hpp"
#include "graph/suite.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace speckle;
  support::Options opts(argc, argv);
  const std::string mtx = opts.get_string("graph", "");
  const std::string suite = opts.get_string("suite", "rmat-er");
  const auto denom = opts.get_uint<std::uint32_t>("denom", 64);
  const coloring::Scheme scheme = opts.get_choice(
      "scheme", "D-ldg", coloring::find_scheme, coloring::scheme_names());
  const auto block = opts.get_uint<std::uint32_t>("block", 128);
  const bool kernels = opts.get_bool("kernels", false);
  opts.validate({"graph", "suite", "denom", "scheme", "block", "kernels"});

  // 1. Get a graph: a Matrix Market file if given, else a suite graph.
  const graph::CsrGraph g = mtx.empty() ? graph::make_suite_graph(suite, denom)
                                        : graph::read_matrix_market(mtx);
  const graph::DegreeReport deg = graph::analyze_degrees(g);
  std::cout << "graph: " << (mtx.empty() ? suite : mtx) << "  n=" << deg.num_vertices
            << "  m=" << deg.num_edges << "  avg deg=" << deg.avg_degree << "\n";

  // 2. Color on the simulated K20c.
  coloring::RunOptions run;
  run.block_size = block;
  // Reduced-scale runs shrink the machine models' caches by the same factor
  // so cache-to-working-set ratios match the paper-scale experiment.
  if (mtx.empty() && denom > 1) run.scale_caches(denom);
  const coloring::RunResult r = coloring::run_scheme(scheme, g, run);

  // 3. Compare with the sequential greedy baseline.
  const coloring::RunResult seq =
      coloring::run_scheme(coloring::Scheme::kSequential, g, run);

  std::cout << coloring::scheme_name(scheme) << ": " << r.num_colors << " colors in "
            << r.iterations << " iterations, " << r.model_ms << " ms (model)\n"
            << "sequential: " << seq.num_colors << " colors, " << seq.model_ms
            << " ms (model)\n"
            << "speedup over sequential: " << seq.model_ms / r.model_ms << "x\n";

  if (kernels) {
    std::cout << "kernel log (cycles, gld, l2 hit%, ro hit%, atomics):\n";
    for (const auto& k : r.report.kernels) {
      const double l2_pct = k.l2_hits + k.l2_misses
                                ? 100.0 * k.l2_hits / (k.l2_hits + k.l2_misses)
                                : 0.0;
      const double ro_pct = k.ro_hits + k.ro_misses
                                ? 100.0 * k.ro_hits / (k.ro_hits + k.ro_misses)
                                : 0.0;
      std::cout << "  " << k.name << ": " << k.cycles << " cy, " << k.gld_transactions
                << " gld, " << l2_pct << "% l2, " << ro_pct << "% ro, " << k.atomics
                << " atomics\n";
    }
    std::cout << "  transfers: h2d " << r.report.h2d.bytes << " B/"
              << r.report.h2d.cycles << " cy, d2h " << r.report.d2h.bytes << " B/"
              << r.report.d2h.cycles << " cy\n";
  }

  // run_scheme verifies internally; show it explicitly for the tour.
  const auto verify = coloring::verify_coloring(g, r.coloring);
  std::cout << "verification: " << verify.to_string() << "\n";
  return verify.proper ? 0 : 1;
}
