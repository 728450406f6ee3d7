/// \file register_allocation.cpp
/// Chaitin-style register allocation (paper Section II, application [4]):
/// virtual registers that are live at the same time interfere and must not
/// share a physical register — exactly vertex coloring of the interference
/// graph.
///
/// This example generates a synthetic straight-line program of virtual
/// registers with random live ranges, builds the interference graph
/// (interval overlap), colors it with a GPU-sim scheme, and reports how
/// many physical registers the program needs, with spill analysis for a
/// fixed register file.
///
/// Usage: register_allocation [--vregs=2000] [--len=10000] [--k=16]
///                            [--scheme=D-base] [--seed=7]

#include <algorithm>
#include <iostream>
#include <vector>

#include "coloring/runner.hpp"
#include "graph/builder.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"

namespace {

using namespace speckle;
using graph::vid_t;

struct LiveRange {
  std::uint32_t start;
  std::uint32_t end;  // exclusive
};

}  // namespace

int main(int argc, char** argv) {
  support::Options opts(argc, argv);
  const auto vregs = opts.get_uint<vid_t>("vregs", 2000);
  const auto program_len = opts.get_uint<std::uint32_t>("len", 10000);
  const auto k = opts.get_uint<std::uint32_t>("k", 16);
  const coloring::Scheme scheme = opts.get_choice(
      "scheme", "D-base", coloring::find_scheme, coloring::scheme_names());
  const auto seed = opts.get_uint<std::uint64_t>("seed", 7);
  opts.validate({"vregs", "len", "k", "scheme", "seed"});

  // Synthesize live ranges: definition point uniform, lifetime geometric-ish.
  support::Xoshiro256 rng(seed);
  std::vector<LiveRange> ranges(vregs);
  for (auto& r : ranges) {
    r.start = static_cast<std::uint32_t>(rng.next_below(program_len));
    const auto len = 1 + static_cast<std::uint32_t>(rng.next_below(200));
    r.end = std::min(r.start + len, program_len);
  }

  // Interference graph: sweep-line over range endpoints, O(overlaps).
  std::vector<vid_t> by_start(vregs);
  for (vid_t v = 0; v < vregs; ++v) by_start[v] = v;
  std::sort(by_start.begin(), by_start.end(), [&](vid_t a, vid_t b) {
    return ranges[a].start < ranges[b].start;
  });
  graph::EdgeList interference;
  std::vector<vid_t> active;
  for (vid_t v : by_start) {
    std::erase_if(active, [&](vid_t w) { return ranges[w].end <= ranges[v].start; });
    for (vid_t w : active) interference.push_back({v, w});
    active.push_back(v);
  }
  const graph::CsrGraph g = graph::build_csr(vregs, std::move(interference));
  std::cout << "interference graph: " << g.num_vertices() << " vregs, "
            << g.num_edges() / 2 << " interferences, max simultaneous liveness "
            << g.max_degree() + 1 << "\n";

  // Color = assign physical registers.
  const coloring::RunResult r = coloring::run_scheme(scheme, g, {});
  std::cout << coloring::scheme_name(scheme) << ": program fits in " << r.num_colors
            << " physical registers (" << r.model_ms << " ms simulated, "
            << r.iterations << " rounds)\n";

  // Spill report for a k-register machine: vregs colored beyond k spill.
  vid_t spilled = 0;
  for (vid_t v = 0; v < vregs; ++v) {
    if (r.coloring[v] > k) ++spilled;
  }
  std::cout << "with a " << k << "-register file: " << spilled << " of " << vregs
            << " vregs spill (" << 100.0 * spilled / vregs << "%)\n";

  // Sanity: no two interfering vregs share a register.
  const auto verify = coloring::verify_coloring(g, r.coloring);
  std::cout << "allocation check: " << verify.to_string() << "\n";
  return verify.proper ? 0 : 1;
}
