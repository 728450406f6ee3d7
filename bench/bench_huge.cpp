/// \file bench_huge.cpp
/// The 10^8-edge workload tier: sweep the GeneratorSpec family at a scale
/// two orders of magnitude past Table I and run the data-driven schemes on
/// every family, under an explicit memory budget.
///
/// Per family the bench synthesizes a spec hitting ~--edges directed CSR
/// entries, generates it through the sharded parallel pipeline
/// (generate_graph_cached: KaGen-style chunked generators into the
/// streaming counting-sort CSR builder — bit-identical at any --threads),
/// then runs each scheme at each fleet size P and reports color quality
/// and the simulated makespan.
///
/// Memory discipline: --mem-budget-mb is a hard cap, enforced twice. A
/// pre-flight check compares the spec's estimated generation + run
/// footprint against the budget and aborts BEFORE allocating (fail loudly,
/// never swap); after the sweep the process's actual high-water mark
/// (VmHWM) is checked against the same cap.
///
/// Flags (deliberately not bench_common's parse_context: --denom cache
/// scaling does not apply — this tier runs the full-scale machine model):
///   --families=ba,rgg2d,grid2d,grid3d,kron   graph families to sweep
///   --edges=100000000   target directed CSR entries per family
///   --schemes=D-base,D-ldg,D-atomic          data-driven schemes to run
///   --parts=1,4         fleet sizes P (multi-device sharding for P > 1)
///   --partitioner=contiguous|bfs             vertex partitioner for P > 1
///   --block=128 --seed=1 --threads=0         as in bench_common
///   --mem-budget-mb=12288                    hard memory cap (MiB)
///   --graph-cache=DIR   on-disk CSR cache (SPECKLE_GRAPH_CACHE also works)
///   --json=PATH         write BENCH_huge.json-style records
///
/// Simulated quantities (colors, rounds, model_ms) are deterministic and
/// byte-identical at every --threads value; gen/run wall seconds and the
/// RSS high-water mark are host-side measurements.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coloring/runner.hpp"
#include "graph/analysis.hpp"
#include "graph/cache.hpp"
#include "graph/genspec.hpp"
#include "graph/partition.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace speckle;

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

/// Synthesize the spec string that lands a family near `edges` directed
/// CSR entries. The divisors are the per-family directed-entries-per-vertex
/// after symmetrization, dedup and boundary losses (validated by
/// graph_generator_props_test's degree-tracking bounds).
std::string family_spec(const std::string& family, std::uint64_t edges) {
  std::ostringstream out;
  if (family == "ba") {
    // attach=4 -> ~8 directed entries per vertex (2*attach, minus dups).
    out << "ba:n=" << edges / 8 << ",attach=4";
  } else if (family == "rgg2d") {
    out << "rgg2d:n=" << edges / 8 << ",deg=8";
  } else if (family == "grid2d") {
    // 5-point stencil (4/vertex) + 0.4 defects/vertex (~0.7 directed).
    const auto n = edges * 10 / 47;
    const auto side = static_cast<std::uint64_t>(
        std::llround(std::sqrt(static_cast<double>(n))));
    out << "grid2d:nx=" << side << ",ny=" << side << ",defects=0.4";
  } else if (family == "grid3d") {
    // 7-point stencil (6/vertex) + 0.5 defects/vertex (~0.9 directed).
    const auto n = edges * 10 / 69;
    const auto side = static_cast<std::uint64_t>(
        std::llround(std::cbrt(static_cast<double>(n))));
    out << "grid3d:nx=" << side << ",ny=" << side << ",nz=" << side
        << ",defects=0.5";
  } else if (family == "kron") {
    // deg=16 directed target; n must be a power of two.
    const double want = static_cast<double>(edges) / 16.0;
    const auto scale = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, std::llround(std::log2(want))));
    out << "kron:scale=" << scale << ",deg=16";
  } else {
    SPECKLE_CHECK(false, "unknown --families entry '" + family +
                             "' (ba, rgg2d, grid2d, grid3d, kron)");
  }
  return out.str();
}

/// The process's resident-set high-water mark, in MiB (0 if unreadable).
std::uint64_t peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %lu", &kb);
      return kb / 1024;
    }
  }
  return 0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto wall_start = std::chrono::steady_clock::now();
  support::Options opts(argc, argv);
  const std::string families_arg =
      opts.get_string("families", "ba,rgg2d,grid2d,grid3d,kron");
  const auto edges = static_cast<std::uint64_t>(
      opts.get_int("edges", 100000000));
  const std::string schemes_arg =
      opts.get_string("schemes", "D-base,D-ldg,D-atomic");
  const std::string parts_arg = opts.get_string("parts", "1,4");
  const auto block = static_cast<std::uint32_t>(opts.get_int("block", 128));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const auto threads = static_cast<std::uint32_t>(opts.get_int("threads", 0));
  const graph::PartitionKind partitioner = graph::partition_kind_from_name(
      opts.get_string("partitioner", "contiguous"));
  const auto budget_mb = static_cast<std::uint64_t>(
      opts.get_int("mem-budget-mb", 12288));
  const std::string graph_cache = graph::resolve_graph_cache_dir(
      opts.get_string("graph-cache", ""));
  const std::string json_path = opts.get_string("json", "");
  opts.validate({"families", "edges", "schemes", "parts", "block", "seed",
                 "threads", "partitioner", "mem-budget-mb", "graph-cache",
                 "json"});
  SPECKLE_CHECK(seed != 0,
                "--seed=0 is reserved (benches derive sub-seeds as seed*k "
                "products); pass a nonzero seed");
  SPECKLE_CHECK(edges >= 1000, "--edges below 1000 is not a huge tier");
  SPECKLE_CHECK(budget_mb >= 64, "--mem-budget-mb must be at least 64");

  const std::vector<std::string> families = split_list(families_arg);
  SPECKLE_CHECK(!families.empty(), "--families needs at least one family");
  std::vector<coloring::Scheme> schemes;
  for (const std::string& s : split_list(schemes_arg)) {
    schemes.push_back(coloring::scheme_from_name(s));
  }
  SPECKLE_CHECK(!schemes.empty(), "--schemes needs at least one scheme");
  std::vector<std::uint32_t> parts;
  for (const std::string& p : split_list(parts_arg)) {
    const int v = std::stoi(p);
    SPECKLE_CHECK(v >= 1, "--parts entries must be >= 1");
    parts.push_back(static_cast<std::uint32_t>(v));
  }
  SPECKLE_CHECK(!parts.empty(), "--parts needs at least one fleet size");

  const unsigned pool_threads =
      threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
  support::ThreadPool pool(pool_threads);

  std::cout << "=== bench_huge: " << edges
            << " directed-entry tier, mem budget " << budget_mb << " MiB ===\n"
            << "generation: sharded parallel pipeline, " << pool_threads
            << " thread(s) (bit-identical at any count)\n\n";

  support::Table table({"family", "n", "m", "avg deg", "gen s", "scheme", "P",
                        "colors", "vs P=1", "rounds", "model ms", "speedup"});
  std::ostringstream json_families;
  double total_gen_s = 0.0;
  bool first_family = true;
  for (const std::string& family : families) {
    const std::string spec_text = family_spec(family, edges);
    const graph::GeneratorSpec spec =
        graph::parse_generator_spec(spec_text, seed * 0x5eed);

    // Pre-flight budget check: generation high-water (shards + counting
    // sort) plus the finished CSR and per-device coloring state the run
    // will hold. Abort before allocating anything — never swap.
    const graph::SpecFootprint fp = graph::estimate_footprint(spec);
    const std::uint64_t csr_bytes =
        fp.directed_edges * sizeof(graph::vid_t) +
        (spec.num_vertices + 1) * sizeof(graph::eid_t);
    const std::uint64_t run_bytes = csr_bytes + spec.num_vertices * 48;
    const std::uint64_t required_mb =
        (std::max(fp.build_peak_bytes, run_bytes) + csr_bytes) / (1024 * 1024) +
        256;
    SPECKLE_CHECK(required_mb <= budget_mb,
                  "family '" + family + "' needs ~" +
                      std::to_string(required_mb) + " MiB, over the " +
                      std::to_string(budget_mb) +
                      " MiB budget — raise --mem-budget-mb or lower --edges");

    const auto gen_start = std::chrono::steady_clock::now();
    const graph::CsrGraph g =
        graph::generate_graph_cached(spec, pool, graph_cache);
    const double gen_s = seconds_since(gen_start);
    total_gen_s += gen_s;
    const graph::DegreeReport deg = graph::analyze_degrees(g);
    std::cout << family << ": " << spec_text << " -> n=" << deg.num_vertices
              << " m=" << deg.num_edges << " avg=" << deg.avg_degree
              << " max=" << deg.max_degree << " (" << gen_s << " s)\n";

    std::ostringstream json_runs;
    bool first_run = true;
    for (const coloring::Scheme scheme : schemes) {
      double base_ms = 0.0;
      coloring::color_t base_colors = 0;
      for (const std::uint32_t p : parts) {
        coloring::RunOptions run;
        run.block_size = block;
        run.seed = seed;
        run.num_devices = p;
        run.partitioner = partitioner;
        run.device.host_threads = threads;
        // run_scheme verifies the coloring internally and aborts on an
        // improper result, so every emitted row is a proper coloring.
        const auto run_start = std::chrono::steady_clock::now();
        const coloring::RunResult r = coloring::run_scheme(scheme, g, run);
        const double run_s = seconds_since(run_start);
        if (p == parts.front()) {
          base_ms = r.model_ms;
          base_colors = r.num_colors;
        }
        const double vs_base =
            base_colors > 0 ? static_cast<double>(r.num_colors) / base_colors
                            : 1.0;
        const double speedup = r.model_ms > 0.0 ? base_ms / r.model_ms : 1.0;
        table.row()
            .cell(family)
            .cell_u64(deg.num_vertices)
            .cell_u64(deg.num_edges)
            .cell_f(deg.avg_degree, 2)
            .cell_f(gen_s, 1)
            .cell(coloring::scheme_name(scheme))
            .cell_u64(p)
            .cell_u64(r.num_colors)
            .cell_ratio(vs_base, 3)
            .cell_u64(r.iterations)
            .cell_f(r.model_ms, 3)
            .cell_ratio(speedup, 2);
        if (!first_run) json_runs << ",";
        first_run = false;
        json_runs << "\n      {\"scheme\": \"" << coloring::scheme_name(scheme)
                  << "\", \"devices\": " << p
                  << ", \"colors\": " << r.num_colors
                  << ", \"colors_vs_p1\": " << vs_base
                  << ", \"rounds\": " << r.iterations
                  << ", \"model_ms\": " << r.model_ms
                  << ", \"speedup_vs_p1\": " << speedup
                  << ", \"run_wall_s\": " << run_s << ", \"proper\": true}";
      }
    }
    if (!first_family) json_families << ",";
    first_family = false;
    json_families << "\n    {\"family\": \"" << family << "\", \"spec\": \""
                  << spec_text << "\", \"key\": \""
                  << graph::canonical_spec_key(spec) << "\", \"n\": "
                  << deg.num_vertices << ", \"m\": " << deg.num_edges
                  << ", \"avg_degree\": " << deg.avg_degree
                  << ", \"max_degree\": " << deg.max_degree
                  << ", \"gen_wall_s\": " << gen_s << ", \"runs\": ["
                  << json_runs.str() << "\n    ]}";
  }

  const double total_s = seconds_since(wall_start);
  const std::uint64_t peak_mb = peak_rss_mb();
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\ngeneration " << total_gen_s << " s of " << total_s
            << " s total wall; peak RSS " << peak_mb << " MiB (budget "
            << budget_mb << " MiB)\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    SPECKLE_CHECK(out.good(), "cannot open --json file '" + json_path + "'");
    out << "{\n  \"benchmark\": \"bench_huge --edges=" << edges
        << " --families=" << families_arg << " --schemes=" << schemes_arg
        << " --parts=" << parts_arg << " --partitioner="
        << graph::partition_kind_name(partitioner) << "\",\n"
        << "  \"machine\": \"simulated NVIDIA K20c fleet (deterministic)\",\n"
        << "  \"mem_budget_mb\": " << budget_mb << ",\n"
        << "  \"peak_rss_mb\": " << peak_mb << ",\n"
        << "  \"gen_wall_s\": " << total_gen_s << ",\n"
        << "  \"total_wall_s\": " << total_s << ",\n"
        << "  \"notes\": [\n"
        << "    \"colors/rounds/model_ms are simulated quantities; "
           "byte-identical at every --threads value\",\n"
        << "    \"every run passed the internal proper-coloring check "
           "(run_scheme aborts otherwise)\"\n  ],\n"
        << "  \"families\": [" << json_families.str() << "\n  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  // The budget is a contract, not a suggestion: blowing it after the fact
  // still fails the bench (the pre-flight estimate was too optimistic).
  SPECKLE_CHECK(peak_mb <= budget_mb,
                "peak RSS " + std::to_string(peak_mb) +
                    " MiB exceeded --mem-budget-mb=" +
                    std::to_string(budget_mb));
  return 0;
}
