/// \file speckle_lint.cpp
/// Static launch-plan linter: run every (requested) GPU scheme with
/// speckle::check enabled, dump the recorded LaunchPlan and the checker
/// findings, and exit non-zero when anything fired.
///
/// Usage:
///   speckle_lint [--suite=Hamrle3 --denom=128 | --graph=matrix.mtx]
///                [--schemes=all|D-ldg,T-base,...] [--devices=1,2,4]
///                [--block=128] [--seed=1] [--threads=N] [--sanitize]
///                [--json=off|full|findings]
///
/// One "run" is a (scheme, device count) pair: every named single-device
/// scheme runs at P=1, and each P>1 in --devices adds the data-driven
/// schemes that have a multi-device path (D-base, D-ldg, D-atomic).
/// --schemes=all (the default) covers every GPU scheme in the registry
/// plus the distance-2 extension (listed as "topo-d2").
///
/// Output modes:
///   * text (default): per run, the launch-plan IR (one line per launch
///     with its declared uses) followed by the findings and a summary;
///   * --json=full: machine-readable dump of every run's full checker
///     report (plan + findings), one JSON object;
///   * --json=findings: a compact findings-only JSON — the CI gate diffs
///     this against a golden (empty) baseline, so a dirty plan shows up
///     as a readable diff naming the rule, kernel and buffer.
///
/// --sanitize additionally runs the dynamic sanitizer (spec
/// cross-validation: any access outside the declared intents is a
/// kUndeclaredAccess finding) and folds its findings into the output and
/// the exit code. Everything printed is deterministic — byte-identical at
/// every --threads value.
///
/// Exit code: 0 when every run is clean, 2 when any checker (or, with
/// --sanitize, sanitizer) finding fired or a flag is malformed, 1 when the
/// --graph file cannot be read.

#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coloring/distance2.hpp"
#include "coloring/runner.hpp"
#include "graph/cache.hpp"
#include "graph/matrix_market.hpp"
#include "graph/suite.hpp"
#include "support/options.hpp"
#include "support/threadpool.hpp"

namespace {

using namespace speckle;

struct LintRun {
  std::string label;       ///< scheme name ("topo-d2" for the D2 extension)
  std::uint32_t devices = 1;
  check::Report check;
  san::Report san;
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string findings_json(const std::vector<LintRun>& runs) {
  std::ostringstream os;
  os << "{\"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const LintRun& run = runs[i];
    if (i != 0) os << ",";
    os << "\n  {\"scheme\": \"" << run.label << "\", \"devices\": "
       << run.devices << ", \"findings\": [";
    bool first = true;
    for (const check::Finding& f : run.check.findings) {
      if (!first) os << ", ";
      first = false;
      os << "{\"rule\": \"" << check::rule_kind_name(f.kind)
         << "\", \"kernel\": \"" << f.kernel << "\", \"buffer\": \""
         << f.buffer << "\"}";
    }
    for (const san::Finding& f : run.san.findings) {
      if (!first) os << ", ";
      first = false;
      os << "{\"rule\": \"san:" << san::finding_kind_name(f.kind)
         << "\", \"kernel\": \"" << f.kernel << "\", \"buffer\": \""
         << f.buffer << "\"}";
    }
    os << "]}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using support::Options;
  Options opts(argc, argv);
  const std::string mtx = opts.get_string("graph", "");
  const std::string suite = opts.get_string("suite", mtx.empty() ? "Hamrle3" : "");
  const auto denom = opts.get_uint<std::uint32_t>("denom", 128);
  const std::string schemes_csv = opts.get_string("schemes", "all");
  const std::vector<std::uint32_t> device_counts = opts.get_uint_list("devices", "1");
  const auto block = opts.get_uint<std::uint32_t>("block", 128);
  const auto seed = opts.get_uint<std::uint64_t>("seed", 1);
  const auto threads =
      opts.get_uint<std::uint32_t>("threads", 0, support::kMaxThreads);
  const bool sanitize = opts.get_bool("sanitize", false);
  const std::string json_mode = opts.get_string("json", "off");
  const std::string graph_cache =
      graph::resolve_graph_cache_dir(opts.get_string("graph-cache", ""));
  opts.validate({"graph", "suite", "denom", "schemes", "devices", "block",
                 "seed", "threads", "sanitize", "json", "graph-cache"});
  if (seed == 0) Options::reject("seed", "0 is reserved; pass a nonzero seed");
  if (!coloring::valid_block_size(block)) {
    Options::reject("block", "expects a power of two in [32, 1024], got " +
                                 std::to_string(block));
  }
  if (json_mode != "off" && json_mode != "full" && json_mode != "findings") {
    Options::reject("json", "takes off, full or findings");
  }
  if (!suite.empty() && graph::find_suite_entry(suite) == nullptr) {
    Options::reject("suite", "unknown suite graph '" + suite +
                                 "'; accepted: " + graph::suite_names());
  }
  if (!suite.empty() && !graph::valid_suite_denom(denom)) {
    Options::reject("denom", "expects a power of two <= 2^19, got " +
                                 std::to_string(denom));
  }
  if (device_counts.empty() ||
      std::find(device_counts.begin(), device_counts.end(), 0u) != device_counts.end()) {
    Options::reject("devices", "needs one or more counts, each >= 1");
  }

  // Resolve the scheme list: "all" = every GPU scheme in the registry plus
  // the distance-2 extension; otherwise the named schemes (which may
  // include "topo-d2").
  std::vector<coloring::Scheme> gpu_schemes;
  std::string accepted = "all topo-d2";
  for (coloring::Scheme s : coloring::all_schemes()) {
    if (!coloring::scheme_uses_gpu(s)) continue;
    gpu_schemes.push_back(s);
    accepted += std::string(" ") + coloring::scheme_name(s);
  }
  std::vector<coloring::Scheme> schemes;
  bool run_d2 = schemes_csv == "all";
  if (run_d2) {
    schemes = gpu_schemes;
  } else {
    for (const std::string& name : split_csv(schemes_csv)) {
      if (name == "topo-d2") {
        run_d2 = true;
        continue;
      }
      const std::optional<coloring::Scheme> s = coloring::find_scheme(name);
      if (!s || !coloring::scheme_uses_gpu(*s)) {
        Options::reject("schemes", "'" + name + "' is not a GPU scheme; accepted: " +
                                       accepted);
      }
      schemes.push_back(*s);
    }
  }

  graph::CsrGraph g;
  if (!mtx.empty()) {
    try {
      g = graph::read_matrix_market(mtx);
    } catch (const graph::MatrixMarketError& e) {
      std::cerr << "speckle_lint: " << e.what() << "\n";
      return 1;
    }
  } else {
    g = graph::make_suite_graph_cached(suite, denom, seed, graph_cache);
  }

  std::vector<LintRun> runs;
  for (const std::uint32_t devices : device_counts) {
    for (const coloring::Scheme s : schemes) {
      if (devices > 1 && !coloring::scheme_supports_multidev(s)) continue;
      coloring::RunOptions run;
      run.block_size = block;
      run.seed = seed;
      run.num_devices = devices;
      run.device.host_threads = threads;
      run.device.check = true;
      run.device.sanitize = sanitize;
      const coloring::RunResult r = coloring::run_scheme(s, g, run);
      runs.push_back(LintRun{coloring::scheme_name(s), devices, r.check, r.san});
    }
    if (run_d2 && devices == 1) {
      coloring::GpuOptions gpu;
      gpu.block_size = block;
      gpu.device.host_threads = threads;
      gpu.device.check = true;
      gpu.device.sanitize = sanitize;
      const coloring::GpuResult r = coloring::topo_color_d2(g, gpu);
      runs.push_back(LintRun{"topo-d2", 1, r.check, r.san});
    }
  }

  bool dirty = false;
  for (const LintRun& run : runs) {
    if (!run.check.clean() || !run.san.clean()) dirty = true;
  }

  if (json_mode == "findings") {
    std::cout << findings_json(runs);
  } else if (json_mode == "full") {
    std::cout << "{\"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i != 0) std::cout << ",";
      std::cout << "\n{\"scheme\": \"" << runs[i].label << "\", \"devices\": "
                << runs[i].devices << ", \"report\": " << runs[i].check.to_json()
                << "}";
    }
    std::cout << "\n]}\n";
  } else {
    for (const LintRun& run : runs) {
      std::cout << "== " << run.label << " devices=" << run.devices << " ==\n"
                << run.check.format_plan() << run.check.format();
      if (sanitize) std::cout << run.san.format();
    }
    std::cout << (dirty ? "speckle_lint: FAIL" : "speckle_lint: clean") << " ("
              << runs.size() << " runs)\n";
  }
  return dirty ? 2 : 0;
}
