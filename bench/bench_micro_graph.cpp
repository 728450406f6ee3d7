/// \file bench_micro_graph.cpp
/// google-benchmark micro-benchmarks for the graph substrate: generator
/// throughput, CSR construction, ordering heuristics, and the sequential
/// greedy baseline (wall-clock, complementary to the cost model).

#include <benchmark/benchmark.h>

#include <string>

#include "coloring/ordering.hpp"
#include "coloring/seq_greedy.hpp"
#include "graph/builder.hpp"
#include "graph/genspec.hpp"

namespace {

using namespace speckle;
using graph::build_csr;
using graph::CsrGraph;

/// The edges of a genspec string on the serial schedule.
graph::EdgeList spec_edges(const std::string& text) {
  return graph::generate_edges_serial(graph::parse_generator_spec(text, 1));
}

/// R-MAT over 2^scale vertices with 8 edge draws per vertex.
std::string rmat_spec(std::uint32_t scale) {
  return "rmat:scale=" + std::to_string(scale) + ",deg=16";
}

void BM_RmatGenerate(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const std::uint64_t edges = (1ULL << scale) * 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec_edges(rmat_spec(scale)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_RmatGenerate)->Arg(12)->Arg(14)->Arg(16);

void BM_CsrBuild(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const auto edges = spec_edges(rmat_spec(scale));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_csr(1u << scale, graph::EdgeList(edges)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_CsrBuild)->Arg(12)->Arg(14)->Arg(16);

void BM_Stencil3d(benchmark::State& state) {
  const std::string d = std::to_string(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec_edges("grid3d:nx=" + d + ",ny=" + d + ",nz=" + d));
  }
}
BENCHMARK(BM_Stencil3d)->Arg(16)->Arg(32)->Arg(48);

void BM_SeqGreedyWallClock(benchmark::State& state) {
  const auto scale = static_cast<std::uint32_t>(state.range(0));
  const CsrGraph g = build_csr(1u << scale, spec_edges(rmat_spec(scale)));
  coloring::SeqOptions opts;
  opts.charge_model = false;  // pure wall-clock measurement
  for (auto _ : state) {
    benchmark::DoNotOptimize(coloring::seq_greedy(g, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SeqGreedyWallClock)->Arg(12)->Arg(14)->Arg(16);

void BM_OrderingHeuristics(benchmark::State& state) {
  const CsrGraph g = build_csr(1u << 14, spec_edges(rmat_spec(14)));
  const auto ordering = static_cast<coloring::Ordering>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(coloring::make_order(g, ordering, 1));
  }
  state.SetLabel(coloring::ordering_name(ordering));
}
BENCHMARK(BM_OrderingHeuristics)
    ->Arg(static_cast<int>(coloring::Ordering::kFirstFit))
    ->Arg(static_cast<int>(coloring::Ordering::kLargestFirst))
    ->Arg(static_cast<int>(coloring::Ordering::kSmallestLast))
    ->Arg(static_cast<int>(coloring::Ordering::kRandom));

}  // namespace

BENCHMARK_MAIN();
