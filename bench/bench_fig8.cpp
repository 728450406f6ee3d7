/// \file bench_fig8.cpp
/// Reproduces **Fig 8** (thread-block size sweep): performance of the
/// proposed schemes with block sizes 32..1024 on each graph, normalized to
/// the 128-thread configuration (the paper's eventual default).
///
/// Paper's shape: 32-thread blocks can't hide memory latency (too few
/// resident warps); performance usually peaks at 128 or 256; 512+ loses
/// occupancy to register pressure ("resource oversaturation"); 128 gives
/// the best average.

#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  using namespace speckle;
  using coloring::Scheme;
  const bench::BenchContext ctx =
      bench::parse_context(argc, argv, {"scheme"});
  const Scheme scheme = support::Options(argc, argv).get_choice(
      "scheme", "D-base", coloring::find_scheme, coloring::scheme_names());
  bench::print_banner(std::string("Fig 8: thread-block size sweep (") +
                          coloring::scheme_name(scheme) + ")",
                      ctx);

  const std::vector<std::uint32_t> blocks = {32, 64, 128, 256, 512, 1024};
  std::vector<std::string> headers = {"graph"};
  for (auto b : blocks) headers.push_back(std::to_string(b) + " (rel)");
  support::Table table(headers);

  std::map<std::uint32_t, std::vector<double>> rel_by_block;
  for (const std::string& name : ctx.graphs) {
    const graph::CsrGraph& g = bench::get_graph(ctx, name);
    std::map<std::uint32_t, double> ms;
    for (std::uint32_t b : blocks) {
      coloring::RunOptions opts = ctx.run_options();
      opts.block_size = b;
      ms[b] = run_scheme(scheme, g, opts).model_ms;
    }
    table.row().cell(name);
    for (std::uint32_t b : blocks) {
      const double rel = ms[128] / ms[b];  // >1: faster than the 128 default
      rel_by_block[b].push_back(rel);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.2fms (%.2f)", ms[b], rel);
      table.cell(buf);
    }
  }
  table.row().cell("geomean rel");
  for (std::uint32_t b : blocks) {
    table.cell_ratio(support::geomean(rel_by_block[b]));
  }
  bench::emit(table, ctx);
  std::cout << "relative column: performance vs the 128-thread default\n"
               "(>1.00 means that block size beats 128 on that graph).\n"
               "paper shape: 32 is the worst in most cases; peak at 128/256;\n"
               ">=512 declines; 128 best on average.\n";
  return 0;
}
