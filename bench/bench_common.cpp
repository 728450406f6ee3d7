#include "bench_common.hpp"

#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "graph/cache.hpp"
#include "graph/genspec.hpp"
#include "graph/suite.hpp"
#include "support/threadpool.hpp"

namespace speckle::bench {

coloring::RunOptions BenchContext::run_options() const {
  coloring::RunOptions opts;
  opts.block_size = block;
  opts.seed = seed;
  opts.num_devices = devices;
  opts.partitioner = partitioner;
  opts.device.host_threads = threads;
  opts.device.profile = profile;
  opts.device.check = check;
  if (denom > 1) opts.scale_caches(denom);
  return opts;
}

BenchContext parse_context(int argc, char** argv,
                           const std::vector<std::string>& extra_known) {
  using support::Options;
  Options opts(argc, argv);
  BenchContext ctx;
  ctx.denom = opts.get_uint<std::uint32_t>("denom", 8);
  ctx.block = opts.get_uint<std::uint32_t>("block", 128);
  ctx.seed = opts.get_uint<std::uint64_t>("seed", 1);
  ctx.threads = opts.get_uint<std::uint32_t>("threads", 0, support::kMaxThreads);
  ctx.devices = opts.get_uint<std::uint32_t>("devices", 1);
  ctx.partitioner = opts.get_choice("partitioner", "contiguous",
                                    graph::find_partition_kind, "contiguous bfs");
  ctx.profile = opts.get_bool("profile", false);
  ctx.check = opts.get_bool("check", false);
  ctx.csv = opts.get_bool("csv", false);
  ctx.graph_cache =
      graph::resolve_graph_cache_dir(opts.get_string("graph-cache", ""));
  if (ctx.seed == 0) {
    Options::reject("seed", "0 is reserved (benches derive sub-seeds as "
                            "seed*k products); pass a nonzero seed");
  }
  if (ctx.devices == 0) Options::reject("devices", "needs at least 1");
  if (!coloring::valid_block_size(ctx.block)) {
    Options::reject("block", "expects a power of two in [32, 1024], got " +
                                 std::to_string(ctx.block));
  }

  const std::string graphs = opts.get_string("graphs", "");
  if (graphs.empty()) {
    for (const auto& entry : graph::suite_entries()) ctx.graphs.push_back(entry.name);
  } else {
    // Spec entries ("model:key=value,...") may themselves contain commas,
    // so the list splits on commas only outside a spec's argument tail —
    // a new entry starts where a comma is followed by a known suite name
    // or another "model:" prefix.
    std::stringstream ss(graphs);
    std::string name;
    while (std::getline(ss, name, ',')) {
      if (!ctx.graphs.empty() && ctx.graphs.back().find(':') != std::string::npos &&
          name.find('=') != std::string::npos && name.find(':') == std::string::npos) {
        ctx.graphs.back() += "," + name;  // continuation of the spec's args
        continue;
      }
      ctx.graphs.push_back(name);
    }
    for (const std::string& entry : ctx.graphs) {
      if (entry.find(':') != std::string::npos) {
        graph::parse_generator_spec(entry, ctx.seed);  // aborts on bad specs
      } else if (graph::find_suite_entry(entry) == nullptr) {
        Options::reject("graphs", "unknown suite graph '" + entry +
                                      "'; accepted: " + graph::suite_names() +
                                      ", or a model:key=value spec");
      }
    }
  }
  for (const std::string& entry : ctx.graphs) {
    if (entry.find(':') == std::string::npos && !graph::valid_suite_denom(ctx.denom)) {
      Options::reject("denom", "suite graphs need a power of two <= 2^19, got " +
                                   std::to_string(ctx.denom));
    }
  }

  std::vector<std::string> known = {"denom",   "block",   "seed",
                                    "threads", "devices", "partitioner",
                                    "profile", "check",   "csv",
                                    "graphs",  "graph-cache"};
  known.insert(known.end(), extra_known.begin(), extra_known.end());
  opts.validate(known);
  return ctx;
}

const graph::CsrGraph& get_graph(const BenchContext& ctx, const std::string& name) {
  static std::map<std::pair<std::string, std::uint32_t>, graph::CsrGraph> cache;
  const auto key = std::make_pair(name, ctx.denom);
  auto it = cache.find(key);
  if (it == cache.end()) {
    graph::CsrGraph g;
    if (name.find(':') != std::string::npos) {
      // GeneratorSpec entry: sharded generation + parallel CSR build at
      // the bench's --threads concurrency (denom does not apply — the
      // spec names its own size).
      const graph::GeneratorSpec spec =
          graph::parse_generator_spec(name, ctx.seed * 0x5eed);
      const unsigned threads =
          ctx.threads != 0 ? ctx.threads
                           : std::max(1u, std::thread::hardware_concurrency());
      support::ThreadPool pool(threads);
      g = graph::generate_graph_cached(spec, pool, ctx.graph_cache);
    } else {
      g = graph::make_suite_graph_cached(name, ctx.denom, ctx.seed * 0x5eed,
                                         ctx.graph_cache);
    }
    it = cache.emplace(key, std::move(g)).first;
  }
  return it->second;
}

void print_banner(const std::string& title, const BenchContext& ctx) {
  std::cout << "=== " << title << " ===\n"
            << "scale: 1/" << ctx.denom << " of paper size (--denom=1 for full);"
            << " block size " << ctx.block << "; simulated NVIDIA K20c vs."
            << " modeled Xeon E5-2670\n"
            << "executor: ";
  if (ctx.threads == 0) {
    std::cout << "one host thread per hardware thread";
  } else {
    std::cout << ctx.threads << " host thread" << (ctx.threads == 1 ? "" : "s");
  }
  std::cout << " (--threads=N; results are thread-count invariant)\n\n";
}

void emit(const support::Table& table, const BenchContext& ctx) {
  table.print(std::cout);
  if (ctx.csv) {
    std::cout << "\n--- csv ---\n";
    table.print_csv(std::cout);
  }
  std::cout << "\n";
}

}  // namespace speckle::bench
