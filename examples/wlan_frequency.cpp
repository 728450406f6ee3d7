/// \file wlan_frequency.cpp
/// Frequency assignment for wireless access points (paper Section II,
/// application [14]): access points within interference range must use
/// different channels — vertex coloring of a random geometric disk graph.
///
/// This example scatters access points in a unit square (the rgg2d
/// generator model), connects pairs closer than the interference radius,
/// colors the graph, and reports the channel count against the 2.4 GHz
/// band's 3 non-overlapping channels (1/6/11), marking where the
/// deployment is too dense.
///
/// Usage: wlan_frequency [--aps=5000] [--radius=0.02] [--scheme=T-ldg]
///                       [--seed=11]

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "coloring/runner.hpp"
#include "graph/analysis.hpp"
#include "graph/genspec.hpp"
#include "support/options.hpp"
#include "support/threadpool.hpp"

int main(int argc, char** argv) {
  using namespace speckle;
  support::Options opts(argc, argv);
  const auto aps = opts.get_uint<graph::vid_t>("aps", 5000);
  const double radius = opts.get_double("radius", 0.02);
  const coloring::Scheme scheme = opts.get_choice(
      "scheme", "T-ldg", coloring::find_scheme, coloring::scheme_names());
  const auto seed = opts.get_uint<std::uint64_t>("seed", 11);
  opts.validate({"aps", "radius", "scheme", "seed"});

  graph::GeneratorSpec spec;
  spec.model = graph::GenModel::kGeometric2d;
  spec.num_vertices = aps;
  spec.radius = radius;
  spec.seed = seed;
  support::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  const graph::CsrGraph g = graph::generate_graph(spec, pool);
  const graph::DegreeReport deg = graph::analyze_degrees(g);
  std::cout << aps << " access points, interference radius " << radius << ": "
            << g.num_edges() / 2 << " interfering pairs, worst AP sees "
            << deg.max_degree << " neighbors\n";

  const coloring::RunResult r = coloring::run_scheme(scheme, g, {});
  std::cout << coloring::scheme_name(scheme) << ": assignment uses " << r.num_colors
            << " channels (" << r.model_ms << " ms simulated)\n";

  // Channel usage histogram, and which APs exceed the 3 clean 2.4GHz bands.
  const auto histogram = coloring::color_histogram(r.coloring);
  std::cout << "channel usage:";
  for (coloring::color_t c = 1; c < histogram.size(); ++c) {
    std::cout << " ch" << c << "=" << histogram[c];
  }
  std::cout << "\n";
  graph::vid_t overflow = 0;
  for (graph::vid_t v = 0; v < aps; ++v) {
    if (r.coloring[v] > 3) ++overflow;
  }
  if (overflow == 0) {
    std::cout << "deployment fits the 3 non-overlapping 2.4 GHz channels\n";
  } else {
    std::cout << overflow << " APs need channels beyond 1/6/11 — deployment "
                 "too dense for 2.4 GHz alone (add 5 GHz radios there)\n";
  }

  const auto verify = coloring::verify_coloring(g, r.coloring);
  std::cout << "interference check: " << verify.to_string() << "\n";
  return verify.proper ? 0 : 1;
}
