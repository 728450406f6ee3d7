/// \file exam_timetabling.cpp
/// Exam timetabling by graph coloring — the oldest application the paper
/// cites (Welsh & Powell 1967; Section II [1][2]): two exams that share a
/// student must not share a time slot, so slots are colors of the
/// exam-conflict graph.
///
/// This example synthesizes enrollments (students pick a handful of
/// courses, popularity follows a heavy tail), builds the conflict graph,
/// colors it with a GPU-sim scheme, refines the slot count with iterated
/// greedy, and prints the timetable statistics.
///
/// Usage: exam_timetabling [--courses=600] [--students=20000]
///                         [--per-student=5] [--scheme=D-base] [--seed=17]

#include <algorithm>
#include <iostream>
#include <vector>

#include "coloring/refine.hpp"
#include "coloring/runner.hpp"
#include "graph/builder.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace speckle;
  using graph::vid_t;
  support::Options opts(argc, argv);
  const auto courses = opts.get_uint<vid_t>("courses", 600);
  const auto students = opts.get_uint<std::uint32_t>("students", 20000);
  const auto per_student = opts.get_uint<std::uint32_t>("per-student", 5);
  const coloring::Scheme scheme = opts.get_choice(
      "scheme", "D-base", coloring::find_scheme, coloring::scheme_names());
  const auto seed = opts.get_uint<std::uint64_t>("seed", 17);
  opts.validate({"courses", "students", "per-student", "scheme", "seed"});

  // Enrollment synthesis: course popularity ~ 1/rank (heavy tail), each
  // student picks per_student distinct courses.
  support::Xoshiro256 rng(seed);
  auto draw_course = [&]() {
    // Inverse-CDF of a Zipf-ish distribution via rejection on 1/x.
    for (;;) {
      const auto c = static_cast<vid_t>(rng.next_below(courses));
      if (rng.next_double() < 1.0 / (1.0 + c * 8.0 / courses)) return c;
    }
  };
  graph::EdgeList conflicts;
  for (std::uint32_t s = 0; s < students; ++s) {
    std::vector<vid_t> picks;
    while (picks.size() < per_student) {
      const vid_t c = draw_course();
      if (std::find(picks.begin(), picks.end(), c) == picks.end()) picks.push_back(c);
    }
    for (std::size_t i = 0; i < picks.size(); ++i) {
      for (std::size_t j = i + 1; j < picks.size(); ++j) {
        conflicts.push_back({picks[i], picks[j]});
      }
    }
  }
  const graph::CsrGraph g = graph::build_csr(courses, std::move(conflicts));
  std::cout << courses << " exams, " << students << " students: "
            << g.num_edges() / 2 << " conflicting exam pairs, worst exam clashes "
            << "with " << g.max_degree() << " others\n";

  const coloring::RunResult r = coloring::run_scheme(scheme, g, {});
  std::cout << coloring::scheme_name(scheme) << ": " << r.num_colors << " time slots ("
            << r.model_ms << " ms simulated)\n";

  const auto refined = coloring::iterated_greedy(g, r.coloring, {.rounds = 6});
  std::cout << "after iterated-greedy refinement: " << refined.colors_after
            << " slots\n";

  // Timetable summary: exams per slot.
  std::vector<vid_t> per_slot(refined.colors_after, 0);
  for (vid_t c = 0; c < courses; ++c) ++per_slot[refined.coloring[c] - 1];
  std::cout << "exams per slot:";
  for (vid_t count : per_slot) std::cout << ' ' << count;
  std::cout << "\n";

  const auto verify = coloring::verify_coloring(g, refined.coloring);
  std::cout << "clash check: " << verify.to_string() << "\n";
  return verify.proper ? 0 : 1;
}
