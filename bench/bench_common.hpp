#pragma once
/// \file bench_common.hpp
/// Shared harness for the per-figure/per-table benchmark binaries.
///
/// Every bench accepts:
///   --denom=N    vertex-count divisor vs. paper scale (default 8; 1 = full
///                paper scale). Machine-model caches scale by the same
///                factor so working-set/cache ratios match the paper.
///   --graphs=a,b comma-separated subset of the Table I suite. Entries
///                containing ':' are GeneratorSpec strings instead
///                ("model:key=value,..." per graph/genspec.hpp, e.g.
///                "ba:n=1m,attach=4") and are generated through the
///                sharded parallel pipeline at --threads concurrency —
///                bit-identical output at any thread count
///   --block=N    thread-block size (default 128, the paper's choice)
///   --seed=N     RNG seed for generators and algorithms
///   --threads=N  host threads for the simulator's wave executor (0 = one
///                per hardware thread, the default). Results are
///                bit-identical for every value; only wall-clock changes.
///   --devices=P  shard each run over P simulated GPUs (speckle::multidev;
///                data-driven schemes only; default 1)
///   --partitioner=contiguous|bfs  multi-device vertex partitioner
///   --profile    run the schemes under the speckle::prof profiling layer
///                (benches that support it print a counter summary)
///   --check      record every launch into a speckle::check plan and run
///                the static dataflow checker (findings land in
///                RunResult::check; speckle_lint is the reporting tool)
///   --csv        emit CSV after the human-readable table
///   --graph-cache=DIR  binary on-disk cache for the generated suite
///                graphs, keyed by (name, denom, seed) with a format
///                version guard (src/graph/cache.hpp). Also enabled by the
///                SPECKLE_GRAPH_CACHE environment variable; the flag wins.

#include <string>
#include <vector>

#include "coloring/runner.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace speckle::bench {

struct BenchContext {
  std::uint32_t denom = 8;
  std::uint32_t block = 128;
  std::uint64_t seed = 1;
  std::uint32_t threads = 0;  ///< simulator host threads; 0 = hardware
  std::uint32_t devices = 1;  ///< simulated GPUs (speckle::multidev when > 1)
  graph::PartitionKind partitioner = graph::PartitionKind::kContiguous;
  bool profile = false;       ///< enable DeviceConfig::profile
  bool check = false;         ///< enable DeviceConfig::check
  bool csv = false;
  std::string graph_cache;    ///< on-disk CSR cache dir; "" = disabled
  std::vector<std::string> graphs;  ///< suite names or "model:..." specs

  /// Run options with cache capacities scaled by `denom`.
  coloring::RunOptions run_options() const;
};

/// Parse the shared flags; exits 2 on unknown options beyond `extra_known`
/// and on malformed values.
BenchContext parse_context(int argc, char** argv,
                           const std::vector<std::string>& extra_known = {});

/// Build (and memoize within the process) a suite graph at context scale.
const graph::CsrGraph& get_graph(const BenchContext& ctx, const std::string& name);

/// Print the bench banner: experiment id, scale, machine summary.
void print_banner(const std::string& title, const BenchContext& ctx);

/// Print the table and, if --csv, the CSV form.
void emit(const support::Table& table, const BenchContext& ctx);

}  // namespace speckle::bench
