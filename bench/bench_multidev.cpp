/// \file bench_multidev.cpp
/// Multi-device scaling of the data-driven SGR scheme (speckle::multidev):
/// for each Table I graph and each fleet size P (default 1,2,4), shard the
/// graph, run the lockstep speculate/exchange/resolve rounds, and report
/// color quality, round count, boundary traffic and the simulated fleet
/// makespan against the single-device baseline. P=1 is the plain
/// single-device scheme through the same runner front-end.
///
/// Extra flags beyond the shared set (bench_common.hpp):
///   --parts=1,2,4    comma-separated fleet sizes
///   --scheme=D-ldg   data-driven scheme to shard (D-base/D-ldg/D-atomic)
///   --json=PATH      also write the records as JSON
///
/// It is also the huge-tier bench: --denom=1 runs the full-scale machine
/// model, and --graphs takes generator specs, e.g. the five families at
/// 10^6 directed entries (docs/graphs.md lists them at 10^6 and 10^8):
///
///   bench_multidev --denom=1 --parts=1,4 --scheme=D-ldg
///     --graphs=ba:n=125000,attach=4,rgg2d:n=125000,deg=8,grid2d:nx=461,
///     ny=461,defects=0.4,grid3d:nx=53,ny=53,nz=53,defects=0.5,kron:scale=16,
///     deg=16   (one argument, no spaces)
///
/// Every table row and run record is simulated and deterministic —
/// byte-identical at every --threads value. The --json file's top-level
/// gen_wall_s (graph generation) and total_wall_s are host wall-clock.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "graph/partition.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speckle;
  const auto wall_start = std::chrono::steady_clock::now();
  support::Options flags(argc, argv);
  const std::string parts_arg = flags.get_string("parts", "1,2,4");
  const std::vector<std::uint32_t> parts = flags.get_uint_list("parts", "1,2,4");
  const coloring::Scheme scheme = flags.get_choice(
      "scheme", "D-ldg", coloring::find_scheme, coloring::scheme_names());
  const std::string json_path = flags.get_string("json", "");
  const bench::BenchContext ctx =
      bench::parse_context(argc, argv, {"parts", "scheme", "json"});
  if (parts.empty() || std::find(parts.begin(), parts.end(), 0u) != parts.end()) {
    support::Options::reject("parts", "needs one or more fleet sizes, each >= 1");
  }
  if (!coloring::scheme_supports_multidev(scheme)) {
    support::Options::reject("scheme", "takes a data-driven scheme: D-base, "
                                       "D-ldg or D-atomic");
  }
  const std::string scheme_arg = coloring::scheme_name(scheme);
  bench::print_banner("multi-device scaling: sharded " + scheme_arg, ctx);

  support::Table table({"graph", "P", "partitioner", "colors", "vs P=1", "rounds",
                        "cut edges", "ghost colors", "d2d KB", "hidden ms",
                        "stall ms", "model ms", "speedup"});
  std::ostringstream json_runs;
  bool first_run = true;
  double gen_wall_s = 0.0;
  for (const std::string& name : ctx.graphs) {
    const auto gen_start = std::chrono::steady_clock::now();
    const graph::CsrGraph& g = bench::get_graph(ctx, name);
    gen_wall_s += seconds_since(gen_start);
    double base_ms = 0.0;
    coloring::color_t base_colors = 0;
    for (const std::uint32_t p : parts) {
      coloring::RunOptions run = ctx.run_options();
      run.num_devices = p;
      const coloring::RunResult r = coloring::run_scheme(scheme, g, run);
      if (p == 1 || base_colors == 0) {
        base_ms = r.model_ms;
        base_colors = r.num_colors;
      }
      const double vs_base =
          base_colors > 0 ? static_cast<double>(r.num_colors) / base_colors : 1.0;
      const double speedup = r.model_ms > 0.0 ? base_ms / r.model_ms : 1.0;
      std::uint64_t stall_cycles = 0;
      std::uint64_t batches = 0;
      for (const prof::ExchangeRound& er : r.exchange_rounds) {
        stall_cycles += er.stall_cycles;
        batches += er.batches;
      }
      const double stall_ms = run.device.cycles_to_ms(stall_cycles);
      table.row()
          .cell(name)
          .cell_u64(p)
          .cell(p == 1 ? "-" : graph::partition_kind_name(ctx.partitioner))
          .cell_u64(r.num_colors)
          .cell_ratio(vs_base, 2)
          .cell_u64(r.iterations)
          .cell_u64(r.cut_edges)
          .cell_u64(r.exchanged_colors)
          .cell_f(static_cast<double>(r.report.d2d.bytes) / 1024.0, 1)
          .cell_f(r.hidden_ms, 4)
          .cell_f(stall_ms, 4)
          .cell_f(r.model_ms, 4)
          .cell_ratio(speedup, 2);
      if (!json_path.empty()) {
        if (!first_run) json_runs << ",";
        first_run = false;
        json_runs << "\n    {\"graph\": \"" << name << "\", \"devices\": " << p
                  << ", \"partitioner\": \""
                  << (p == 1 ? "-" : graph::partition_kind_name(ctx.partitioner))
                  << "\", \"colors\": " << r.num_colors
                  << ", \"colors_vs_p1\": " << vs_base
                  << ", \"rounds\": " << r.iterations
                  << ", \"cut_edges\": " << r.cut_edges
                  << ", \"exchanged_colors\": " << r.exchanged_colors
                  << ", \"d2d_bytes\": " << r.report.d2d.bytes
                  << ", \"exchange_batches\": " << batches
                  << ", \"hidden_ms\": " << r.hidden_ms
                  << ", \"stall_ms\": " << stall_ms
                  << ", \"model_ms\": " << r.model_ms
                  << ", \"speedup_vs_p1\": " << speedup << "}";
      }
    }
  }
  bench::emit(table, ctx);
  std::cout << "note: the simulated interconnect charges every nonempty peer link\n"
               "to both endpoints; speedup < 1 on small shards is expected (the\n"
               "exchange latency dominates once per-device work shrinks).\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) support::Options::reject("json", "cannot open '" + json_path + "'");
    out << "{\n  \"benchmark\": \"bench_multidev --scheme=" << scheme_arg
        << " --parts=" << parts_arg << " --denom=" << ctx.denom
        << " --partitioner=" << graph::partition_kind_name(ctx.partitioner)
        << "\",\n  \"machine\": \"simulated NVIDIA K20c fleet (deterministic)\",\n"
        << "  \"gen_wall_s\": " << gen_wall_s << ",\n"
        << "  \"total_wall_s\": " << seconds_since(wall_start) << ",\n"
        << "  \"notes\": [\n"
        << "    \"colors/rounds/cut/exchange/model_ms are simulated quantities; "
           "byte-identical at every --threads value\",\n"
        << "    \"gen_wall_s/total_wall_s are host wall-clock seconds\",\n"
        << "    \"P=1 rows are the plain single-device scheme through the same "
           "runner\"\n  ],\n"
        << "  \"runs\": [" << json_runs.str() << "\n  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
