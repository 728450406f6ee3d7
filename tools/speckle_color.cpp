/// \file speckle_color.cpp
/// Command-line graph coloring driver: load or generate a graph, color it
/// with any scheme in the registry, verify, and optionally write the
/// color assignment and a summary.
///
/// Usage:
///   speckle_color --graph=matrix.mtx [--scheme=D-ldg] [--block=128]
///                 [--out=colors.txt] [--balance] [--refine] [--distance2]
///                 [--profile] [--sanitize] [--check] [--seed=1] [--threads=N]
///                 [--devices=P] [--partitioner=contiguous|bfs]
///                 [--graph-cache=DIR]
///
/// --devices=P shards the graph over P simulated GPUs (speckle::multidev;
/// data-driven schemes only) and prints a per-device breakdown (boundary
/// sizes, exchange busy/stall/hidden cycles) plus the per-round coalesced
/// exchange batches; the partitioner defaults to contiguous.
///
/// --graph-cache=DIR caches generated --suite graphs on disk keyed by
/// (name, denom, seed) with a format-version guard (src/graph/cache.hpp);
/// the SPECKLE_GRAPH_CACHE environment variable enables it too.
///
/// --threads=N sets the host threads of the simulator's wave executor
/// (0 = one per hardware thread, the default). Colors and simulated times
/// are bit-identical for every value; only host wall-clock changes.
///   speckle_color --suite=rmat-er --denom=8 ...
///
/// --sanitize runs the scheme under the speckle::san instrumentation layer
/// (out-of-bounds, uninitialized reads, undeclared cross-block races, __ldg
/// coherence, worklist misuse — see docs/simulator.md) and prints the
/// findings; the exit code is 2 when any finding fired.
///
/// --check records every kernel launch into a speckle::check LaunchPlan and
/// runs the static dataflow checker over it (hazards, __ldg of writable
/// buffers, worklist aliasing, capacity overflow, in-flight exchange
/// trespass — see docs/simulator.md §13). Findings print after a
/// "--- check ---" marker; combined with --sanitize the sanitizer also
/// flags any dynamic access outside the declared specs. The exit code is
/// 2 when the checker (or the sanitizer) reports anything.
///
/// --profile runs the scheme under the speckle::prof profiling layer and
/// prints per-kernel hardware-counter-style metrics (cache hit rates, DRAM
/// transactions, coalescing efficiency, per-buffer atomics, divergence,
/// stalls) after a "--- profile ---" marker; the section contains only
/// simulated quantities and is byte-identical at every --threads value.
/// --profile=json / =trace / =both additionally write machine-readable
/// exports next to --profile-out (default "profile"): <prefix>.json
/// (JSON record) and <prefix>.trace.json (Chrome-trace /
/// Perfetto timeline).
///
/// Output file format: one line per vertex, "<vertex> <color>", colors
/// 1-based; header lines start with '%'.

#include <fstream>
#include <iostream>

#include "coloring/balance.hpp"
#include "coloring/distance2.hpp"
#include "coloring/refine.hpp"
#include "coloring/runner.hpp"
#include "graph/analysis.hpp"
#include "graph/cache.hpp"
#include "graph/matrix_market.hpp"
#include "graph/suite.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/threadpool.hpp"

int main(int argc, char** argv) {
  using namespace speckle;
  support::Options opts(argc, argv);
  const std::string mtx = opts.get_string("graph", "");
  const std::string suite = opts.get_string("suite", "");
  const auto denom = opts.get_uint<std::uint32_t>("denom", 8);
  const coloring::Scheme scheme = opts.get_choice(
      "scheme", "D-ldg", coloring::find_scheme, coloring::scheme_names());
  const std::string scheme_name = coloring::scheme_name(scheme);
  const auto block = opts.get_uint<std::uint32_t>("block", 128);
  const std::string out_path = opts.get_string("out", "");
  const bool balance = opts.get_bool("balance", false);
  const bool refine = opts.get_bool("refine", false);
  const bool distance2 = opts.get_bool("distance2", false);
  const bool sanitize = opts.get_bool("sanitize", false);
  const bool check = opts.get_bool("check", false);
  // Bare --profile stores "true": text report only. =json/=trace/=both also
  // write the machine-readable exports.
  const std::string profile_mode = opts.get_string("profile", "off");
  const std::string profile_out = opts.get_string("profile-out", "profile");
  const auto seed = opts.get_uint<std::uint64_t>("seed", 1);
  const auto threads =
      opts.get_uint<std::uint32_t>("threads", 0, support::kMaxThreads);
  const auto devices = opts.get_uint<std::uint32_t>("devices", 1);
  const graph::PartitionKind partition = opts.get_choice(
      "partitioner", "contiguous", graph::find_partition_kind, "contiguous bfs");
  // Opt-in on-disk CSR cache for --suite graphs (also enabled by the
  // SPECKLE_GRAPH_CACHE environment variable; the flag wins).
  const std::string graph_cache =
      graph::resolve_graph_cache_dir(opts.get_string("graph-cache", ""));
  opts.validate({"graph", "suite", "denom", "scheme", "block", "out", "balance",
                 "refine", "distance2", "sanitize", "check", "profile",
                 "profile-out", "seed", "threads", "devices", "partitioner",
                 "graph-cache"});
  using support::Options;
  if (seed == 0) {
    Options::reject("seed", "0 is reserved (it collapses the repo's "
                            "derived-seed products); pass a nonzero seed");
  }
  if (devices == 0) Options::reject("devices", "needs at least 1");
  if (!coloring::valid_block_size(block)) {
    Options::reject("block", "expects a power of two in [32, 1024], got " +
                                 std::to_string(block));
  }
  if (profile_mode != "off" && profile_mode != "true" && profile_mode != "json" &&
      profile_mode != "trace" && profile_mode != "both") {
    Options::reject("profile", "takes json, trace or both (bare --profile "
                               "prints the text report only)");
  }
  const bool profiling = profile_mode != "off";
  if (mtx.empty() == suite.empty()) {
    Options::reject("graph", "pass exactly one of --graph=<path.mtx> or "
                             "--suite=<name>");
  }
  if (!suite.empty() && graph::find_suite_entry(suite) == nullptr) {
    Options::reject("suite", "unknown suite graph '" + suite +
                                 "'; accepted: " + graph::suite_names());
  }
  if (!suite.empty() && !graph::valid_suite_denom(denom)) {
    Options::reject("denom", "expects a power of two <= 2^19, got " +
                                 std::to_string(denom));
  }
  if (devices > 1 && (distance2 || !coloring::scheme_supports_multidev(scheme))) {
    Options::reject("devices", "values > 1 need --scheme=D-base, D-ldg or "
                               "D-atomic, without --distance2");
  }

  graph::CsrGraph g;
  if (!mtx.empty()) {
    try {
      g = graph::read_matrix_market(mtx);
    } catch (const graph::MatrixMarketError& e) {
      std::cerr << "speckle_color: " << e.what() << "\n";
      return 1;
    }
  } else {
    g = graph::make_suite_graph_cached(suite, denom, seed, graph_cache);
  }
  const graph::DegreeReport deg = graph::analyze_degrees(g);
  std::cout << "graph: " << (mtx.empty() ? suite : mtx) << "  n=" << deg.num_vertices
            << " m=" << deg.num_edges << " deg[" << deg.min_degree << ","
            << deg.max_degree << "] avg=" << deg.avg_degree << "\n";

  coloring::Coloring coloring;
  coloring::color_t num_colors = 0;
  san::Report san;
  prof::Report prof;
  check::Report chk;
  simt::DeviceConfig dev_cfg = simt::DeviceConfig::k20c();
  if (distance2) {
    coloring::GpuOptions gpu;
    gpu.block_size = block;
    gpu.device.host_threads = threads;
    gpu.device.sanitize = sanitize;
    gpu.device.profile = profiling;
    gpu.device.check = check;
    dev_cfg = gpu.device;
    const auto r = coloring::topo_color_d2(g, gpu);
    SPECKLE_CHECK(coloring::verify_coloring_d2(g, r.coloring).proper,
                  "distance-2 coloring invalid");
    coloring = r.coloring;
    num_colors = r.num_colors;
    san = r.san;
    prof = r.prof;
    chk = r.check;
    std::cout << "distance-2 topo-gpu: " << num_colors << " colors in "
              << r.iterations << " iterations, " << r.model_ms << " ms simulated\n";
  } else {
    coloring::RunOptions run;
    run.block_size = block;
    run.seed = seed;
    run.num_devices = devices;
    run.partitioner = partition;
    run.device.host_threads = threads;
    run.device.sanitize = sanitize;
    run.device.profile = profiling;
    run.device.check = check;
    dev_cfg = run.device;
    const auto r = coloring::run_scheme(scheme, g, run);
    coloring = r.coloring;
    num_colors = r.num_colors;
    san = r.san;
    prof = r.prof;
    chk = r.check;
    std::cout << scheme_name << ": " << num_colors << " colors in " << r.iterations
              << " iterations, " << r.model_ms << " ms simulated, " << r.wall_ms
              << " ms host wall\n";
    if (devices > 1) {
      std::cout << "devices: " << devices << " (" << graph::partition_kind_name(partition)
                << " partition), cut=" << r.cut_edges
                << " directed edges, exchanged=" << r.exchanged_colors
                << " ghost colors, hidden=" << r.hidden_ms << " ms\n";
      for (const auto& d : r.devices) {
        std::cout << "  d" << d.device << ": owned=" << d.owned
                  << " boundary=" << d.boundary << " ghosts=" << d.ghosts
                  << " cut=" << d.cut_edges << " rounds=" << d.rounds
                  << " sent=" << d.sent_colors << " recv=" << d.recv_colors
                  << " d2d=" << d.report.d2d.bytes
                  << "B busy=" << d.exchange_busy_cycles
                  << "cyc stall=" << d.exchange_stall_cycles
                  << "cyc hidden=" << d.exchange_hidden_cycles << "cyc\n";
      }
      for (const auto& er : r.exchange_rounds) {
        std::cout << "  round " << er.round << ": batches=" << er.batches
                  << " bytes=" << er.bytes << " cycles=" << er.cycles
                  << " hidden=" << er.hidden_cycles
                  << " stall=" << er.stall_cycles << "\n";
      }
    }
  }
  if (sanitize) std::cout << san.format();
  if (check) {
    // Marker mirrors the profile section: sed-extractable, simulated
    // quantities only, byte-identical at every --threads value.
    std::cout << "--- check ---\n" << chk.format();
  }
  if (profiling) {
    // The marker makes the section sed-extractable for golden diffing; the
    // section holds only simulated quantities (no wall clock), so it is
    // byte-identical at every --threads value.
    std::cout << "--- profile ---\n" << prof.format(dev_cfg);
    const std::string benchmark =
        "speckle_color --scheme=" + scheme_name + " " +
        (mtx.empty() ? "--suite=" + suite + " --denom=" + std::to_string(denom)
                     : "--graph=" + mtx);
    if (profile_mode == "json" || profile_mode == "both") {
      const std::string path = profile_out + ".json";
      std::ofstream json(path);
      if (!json.good()) Options::reject("profile-out", "cannot open '" + path + "'");
      json << prof.to_json(dev_cfg, benchmark);
      std::cout << "wrote " << path << "\n";
    }
    if (profile_mode == "trace" || profile_mode == "both") {
      const std::string path = profile_out + ".trace.json";
      std::ofstream trace(path);
      if (!trace.good()) Options::reject("profile-out", "cannot open '" + path + "'");
      trace << prof.to_chrome_trace(dev_cfg);
      std::cout << "wrote " << path << "\n";
    }
  }

  if (refine && !distance2) {
    const auto r = coloring::iterated_greedy(g, coloring);
    std::cout << "refine: " << r.colors_before << " -> " << r.colors_after
              << " colors in " << r.rounds_run << " rounds\n";
    coloring = r.coloring;
    num_colors = r.colors_after;
  }

  if (balance && !distance2) {
    const auto b = coloring::balance_colors(g, coloring);
    std::cout << "balance: " << b.balance_before << " -> " << b.balance_after
              << " (" << b.moves << " moves)\n";
    coloring = b.coloring;
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out.good()) Options::reject("out", "cannot open '" + out_path + "'");
    out << "% speckle coloring: " << num_colors << " colors, "
        << g.num_vertices() << " vertices\n";
    for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
      out << v << ' ' << coloring[v] << '\n';
    }
    std::cout << "wrote " << out_path << "\n";
  }
  const bool san_failed = sanitize && !san.clean();
  const bool check_failed = check && !chk.clean();
  if (san_failed || check_failed) {
    std::cout << "FAIL: " << (san_failed ? san.findings.size() : 0)
              << " sanitizer + " << (check_failed ? chk.findings.size() : 0)
              << " checker finding(s) on " << scheme_name << "\n";
    return 2;
  }
  return 0;
}
