// speckbench: the repository benchmark program.
//
// Runs one workload for a fixed wall-clock budget and writes one JSON
// record of raw measurements (samples, simulated quantities, checks, the
// determinism digest and, when traced, per-layer span totals). run.py
// builds this program, reduces the record to the benchmark's metrics and
// adds provenance; see README.md for the workloads and metrics.
//
//   speckbench --workload=suite-sim --seed=1 --seconds=15 --trace=0
//              --threads=4 --serve-bin=PATH --socket=PATH --out=record.json
//
// Exit status: 0 when the run completed (the record says whether every
// check passed), 2 on bad arguments or when the run could not complete.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coloring/coloring.hpp"
#include "coloring/recolor.hpp"
#include "coloring/runner.hpp"
#include "graph/build_parallel.hpp"
#include "graph/builder.hpp"
#include "graph/genspec.hpp"
#include "graph/mutate.hpp"
#include "graph/suite.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/session.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

using namespace speckle;
using coloring::Scheme;
using speckbench::Tracer;

// --- workload parameters ----------------------------------------------------
// Sizes were chosen so that one run fits the benchmark's time budget while
// each workload still repeats its unit of work several times (README.md).
constexpr std::uint32_t kSuiteDenom = 32;
constexpr std::uint32_t kBlock = 128;
const std::vector<std::string> kFleetFamilies = {"rgg2d", "kron", "ba",
                                                 "grid2d"};
constexpr std::uint64_t kFleetEntries = 1U << 18;  ///< directed CSR entries
constexpr std::uint32_t kFleetDevices = 4;
constexpr const char* kServeGraph = "Hamrle3";
constexpr std::uint32_t kServeDenom = 4;
constexpr std::uint32_t kServeThreads = 2;
constexpr std::uint32_t kServeTimeoutMs = 60000;
constexpr std::uint32_t kQueriesPerCycle = 20;  ///< 19 vertex + 1 ncolors
constexpr std::uint32_t kBatchEdges = 64;
constexpr std::uint32_t kBatchDeletes = 16;
constexpr std::uint32_t kMinMutates = 200;
constexpr int kSetups = 3;

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

// --- record ---------------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += json_num(v[i]);
  }
  return out + "]";
}

/// FNV-1a over the canonical text of every simulated quantity a workload
/// produces. Host times never enter it.
class Digest {
 public:
  void add(const std::string& line) {
    for (char c : line) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
    hash_ ^= '\n';
    hash_ *= 1099511628211ULL;
    ++lines_;
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }
  std::uint64_t lines() const { return lines_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
  std::uint64_t lines_ = 0;
};

/// Raw measurements of one run; run.py turns them into metrics.
struct Record {
  std::map<std::string, std::string> params;
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  double peak_rss_mb = 0.0;
  std::vector<double> pass_s;         ///< untraced passes
  std::vector<double> pass_cpu_s;     ///< CPU seconds of the untraced passes
  std::vector<double> traced_pass_s;  ///< traced passes (trace run only)
  std::vector<double> op_ms;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> sim;
  std::map<std::string, double> counts;
  /// Traced regions: name -> (wall ms, units, per-span rows).
  struct Region {
    double wall_ms = 0.0;
    std::uint64_t units = 0;
    std::vector<Tracer::Row> rows;
  };
  std::map<std::string, Region> regions;
  Digest digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }

  std::string to_json() const {
    std::ostringstream out;
    out << "{\"params\":{";
    bool first = true;
    for (const auto& [k, v] : params) {
      out << (first ? "" : ",") << json_str(k) << ":" << json_str(v);
      first = false;
    }
    out << "},\"setup_s\":" << json_list(setup_s)
        << ",\"setup_cpu_s\":" << json_list(setup_cpu_s)
        << ",\"peak_rss_mb\":" << json_num(peak_rss_mb)
        << ",\"pass_s\":" << json_list(pass_s)
        << ",\"pass_cpu_s\":" << json_list(pass_cpu_s)
        << ",\"traced_pass_s\":" << json_list(traced_pass_s)
        << ",\"op_ms\":" << json_list(op_ms) << ",\"samples\":{";
    first = true;
    for (const auto& [k, v] : samples) {
      out << (first ? "" : ",") << json_str(k) << ":" << json_list(v);
      first = false;
    }
    out << "},\"sim\":{";
    first = true;
    for (const auto& [k, v] : sim) {
      out << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
      first = false;
    }
    out << "},\"counts\":{";
    first = true;
    for (const auto& [k, v] : counts) {
      out << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
      first = false;
    }
    out << "},\"regions\":{";
    first = true;
    for (const auto& [name, region] : regions) {
      out << (first ? "" : ",") << json_str(name)
          << ":{\"wall_ms\":" << json_num(region.wall_ms)
          << ",\"units\":" << region.units << ",\"spans\":[";
      for (std::size_t i = 0; i < region.rows.size(); ++i) {
        const Tracer::Row& r = region.rows[i];
        out << (i ? "," : "") << "{\"name\":" << json_str(r.name)
            << ",\"count\":" << r.count
            << ",\"total_ms\":" << json_num(r.total_ms)
            << ",\"self_ms\":" << json_num(r.self_ms) << "}";
      }
      out << "]}";
      first = false;
    }
    out << "},\"digest\":" << json_str(digest.hex())
        << ",\"digest_lines\":" << digest.lines()
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i ? "," : "") << json_str(failures[i]);
    }
    out << "]}\n";
    return out.str();
  }
};

/// VmHWM of a process (self when pid == 0), in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid = 0) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// CPU seconds (user + system, all threads) this process has used.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU seconds another process has used (clock-tick resolution).
double process_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(paren + 2));
  std::string skip;
  for (int i = 0; i < 11; ++i) fields >> skip;  // state .. cmajflt
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : v) {
    if (x > 0.0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

/// Device counters of one run and its host time, summed into `rec.counts`
/// under simt.*. Returns the run's warp instructions.
double add_simt_counts(const coloring::RunResult& r, double host_ms,
                       Record& rec) {
  double insts = 0.0;
  double dram = 0.0;
  for (const simt::KernelStats& k : r.report.kernels) {
    insts += static_cast<double>(k.warp_insts);
    dram += static_cast<double>(k.dram_bytes);
  }
  rec.counts["simt.host_ms"] += host_ms;
  rec.counts["simt.warp_insts"] += insts;
  rec.counts["simt.launches"] += static_cast<double>(r.report.kernels.size());
  rec.counts["simt.dram_bytes"] += dram;
  return insts;
}

/// Stores the span totals of [since, until) as the traced region `name`.
void record_region(const Tracer& tracer, Record& rec, const std::string& name,
                   std::int64_t since, std::int64_t until,
                   std::uint64_t units) {
  Record::Region& reg = rec.regions[name];
  reg.wall_ms = ms_between(since, until);
  reg.units = units;
  reg.rows = tracer.summarize(since, until);
}

/// Runs passes of `pass` while the next one is expected to end within
/// `seconds` (at least `min_passes`). `cpu_now` reads the CPU seconds used
/// so far by every process doing the work.
/// A traced run alternates untraced and traced passes so the tracing
/// overhead is measured inside one process; span totals are taken from the
/// traced passes only.
void run_passes(Tracer& tracer, Record& rec, double seconds, int min_passes,
                const std::string& region,
                const std::function<double()>& cpu_now,
                const std::function<void(bool record)>& pass) {
  const bool traced_run = tracer.on();
  const std::int64_t start = Tracer::now_ns();
  Record::Region& reg = rec.regions[region];
  std::map<std::string, Tracer::Row> totals;
  std::vector<std::string> order;
  double longest_s = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed_s = ms_between(start, Tracer::now_ns()) / 1e3;
    if (i >= min_passes && elapsed_s + longest_s > seconds) break;
    const bool traced = traced_run && (i % 2 == 1);
    tracer.set_on(traced);
    const double cpu0 = cpu_now();
    const std::int64_t t0 = Tracer::now_ns();
    pass(/*record=*/i == 0);
    const std::int64_t t1 = Tracer::now_ns();
    const double cpu_s = cpu_now() - cpu0;
    const double pass_s = ms_between(t0, t1) / 1e3;
    longest_s = std::max(longest_s, pass_s);
    if (traced) {
      rec.traced_pass_s.push_back(pass_s);
      reg.wall_ms += pass_s * 1e3;
      ++reg.units;
      for (const Tracer::Row& row : tracer.summarize(t0)) {
        auto [it, fresh] = totals.emplace(row.name, row);
        if (fresh) {
          order.push_back(row.name);
        } else {
          it->second.count += row.count;
          it->second.total_ms += row.total_ms;
          it->second.self_ms += row.self_ms;
        }
      }
    } else {
      rec.pass_s.push_back(pass_s);
      rec.pass_cpu_s.push_back(cpu_s);
    }
  }
  tracer.set_on(traced_run);
  for (const std::string& name : order) reg.rows.push_back(totals[name]);
}

// --- suite-sim --------------------------------------------------------------

std::vector<graph::CsrGraph> generate_suite(std::uint64_t seed,
                                            support::ThreadPool& pool,
                                            Tracer& tracer) {
  std::vector<graph::CsrGraph> graphs;
  for (const graph::SuiteEntry& entry : graph::suite_entries()) {
    const graph::GeneratorSpec spec =
        graph::suite_generator_spec(entry.name, kSuiteDenom, seed);
    std::vector<graph::EdgeList> shards;
    {
      auto span = tracer.span("graph.generate_shards");
      shards = graph::generate_shards(spec, pool);
    }
    auto span = tracer.span("graph.build_csr_parallel");
    graphs.push_back(graph::build_csr_parallel(
        static_cast<graph::vid_t>(spec.num_vertices), shards, pool));
  }
  return graphs;
}

/// Trace span names per paper scheme (string literals; spans keep pointers).
const char* scheme_span(Scheme s) {
  switch (s) {
    case Scheme::kSequential: return "cpumodel.run_scheme.Sequential";
    case Scheme::kGm3Step: return "coloring.run_scheme.3-step-GM";
    case Scheme::kTopoBase: return "coloring.run_scheme.T-base";
    case Scheme::kTopoLdg: return "coloring.run_scheme.T-ldg";
    case Scheme::kDataBase: return "coloring.run_scheme.D-base";
    case Scheme::kDataLdg: return "coloring.run_scheme.D-ldg";
    case Scheme::kCsrColor: return "coloring.run_scheme.csrcolor";
    default: return "coloring.run_scheme.other";
  }
}

void run_suite_sim(std::uint64_t seed, double seconds, std::uint32_t threads,
                   Tracer& tracer, Record& rec) {
  support::ThreadPool pool(threads);
  rec.params["graphs"] = "Table I twins (6), sharded generator";
  rec.params["denom"] = std::to_string(kSuiteDenom);
  rec.params["schemes"] = "paper (7)";
  rec.params["block"] = std::to_string(kBlock);

  std::vector<graph::CsrGraph> graphs;
  const std::int64_t setup_begin = Tracer::now_ns();
  for (int i = 0; i < kSetups; ++i) {
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = Tracer::now_ns();
    graphs = generate_suite(seed, pool, tracer);
    rec.setup_s.push_back(ms_between(t0, Tracer::now_ns()) / 1e3);
    rec.setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }
  if (tracer.on()) {
    record_region(tracer, rec, "setup", setup_begin, Tracer::now_ns(), kSetups);
  }

  coloring::RunOptions opts;
  opts.block_size = kBlock;
  opts.seed = seed;
  opts.scale_caches(kSuiteDenom);
  opts.device.host_threads = threads;

  // Simulated results of the first sweep; later sweeps must repeat them.
  std::vector<std::string> reference;
  std::vector<double> gpu_ms;
  std::vector<double> colors;
  std::size_t sweep = 0;
  const auto pass = [&](bool first) {
    std::size_t line = 0;
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const graph::CsrGraph& g = graphs[gi];
      const std::string& name = graph::suite_entries()[gi].name;
      for (Scheme s : coloring::paper_schemes()) {
        ++rec.attempted;
        const std::int64_t t0 = Tracer::now_ns();
        coloring::RunResult r;
        {
          auto span = tracer.span(scheme_span(s));
          r = coloring::run_scheme(s, g, opts);
        }
        const double run_ms = ms_between(t0, Tracer::now_ns());
        coloring::VerifyResult v;
        {
          auto span = tracer.span("coloring.verify_coloring");
          v = coloring::verify_coloring(g, r.coloring);
        }
        rec.op_ms.push_back(ms_between(t0, Tracer::now_ns()));
        if (!v.proper) rec.fail(name + "/" + scheme_name(s) + ": improper");

        // Sequential and 3-step-GM model_ms hash host heap addresses.
        const bool stable_ms = s != Scheme::kSequential && s != Scheme::kGm3Step;
        const std::string sim_line =
            name + " " + scheme_name(s) + " colors=" +
            std::to_string(r.num_colors) +
            " iters=" + std::to_string(r.iterations) +
            " ms=" + (stable_ms ? json_num(r.model_ms) : std::string("-"));
        if (first) {
          reference.push_back(sim_line);
          rec.digest.add(sim_line);
          colors.push_back(static_cast<double>(r.num_colors));
          rec.counts["coloring.rounds"] += r.iterations;
          if (stable_ms) gpu_ms.push_back(r.model_ms);
          if (coloring::scheme_uses_gpu(s)) add_simt_counts(r, run_ms, rec);
        } else if (reference[line] != sim_line) {
          rec.fail("sweep " + std::to_string(sweep) + " differs: " + sim_line);
        }
        ++line;
      }
    }
    ++sweep;
  };
  run_passes(tracer, rec, seconds, 2, "timed",
             [] { return process_cpu_s(); }, pass);

  rec.sim["gpu_model_ms_geomean"] = geomean(gpu_ms);
  rec.sim["colors_geomean"] = geomean(colors);
  rec.peak_rss_mb = peak_rss_mb();
}

// --- fleet-p4 ---------------------------------------------------------------

/// bench_huge's per-family spec sizing for a target of `edges` directed
/// CSR entries.
std::string family_spec(const std::string& family, std::uint64_t edges) {
  std::ostringstream out;
  if (family == "ba") {
    out << "ba:n=" << edges / 8 << ",attach=4";
  } else if (family == "rgg2d") {
    out << "rgg2d:n=" << edges / 8 << ",deg=8";
  } else if (family == "grid2d") {
    const auto n = edges * 10 / 47;
    const auto side = static_cast<std::uint64_t>(
        std::llround(std::sqrt(static_cast<double>(n))));
    out << "grid2d:nx=" << side << ",ny=" << side << ",defects=0.4";
  } else {  // kron
    const double want = static_cast<double>(edges) / 16.0;
    const auto scale = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, std::llround(std::log2(want))));
    out << "kron:scale=" << scale << ",deg=16";
  }
  return out.str();
}

void run_fleet_p4(std::uint64_t seed, double seconds, std::uint32_t threads,
                  Tracer& tracer, Record& rec) {
  support::ThreadPool pool(threads);
  std::string specs;
  for (const std::string& f : kFleetFamilies) {
    if (!specs.empty()) specs += ' ';
    specs += family_spec(f, kFleetEntries);
  }
  rec.params["families"] = specs;
  rec.params["scheme"] = "D-ldg";
  rec.params["devices"] = "1," + std::to_string(kFleetDevices);
  rec.params["partitioner"] = "contiguous";
  rec.params["block"] = std::to_string(kBlock);

  // One pass: every family from spec to verified colorings at P=1 and P=4.
  // `entries` sizes the graphs; the first pass at full size records the
  // simulated results and later passes must repeat them.
  std::vector<std::string> reference;
  std::vector<double> speedups;
  std::vector<double> model_ms;
  std::vector<double> colors;
  double worst_ratio = 0.0;
  const auto fleet_pass = [&](std::uint64_t entries, bool first, bool timed) {
    std::size_t line = 0;
    for (const std::string& family : kFleetFamilies) {
      const std::int64_t family_begin = Tracer::now_ns();
      const graph::GeneratorSpec spec = graph::normalized(
          graph::parse_generator_spec(family_spec(family, entries),
                                      seed * 0x5eed));
      std::vector<graph::EdgeList> shards;
      {
        auto span = tracer.span("graph.generate_shards");
        shards = graph::generate_shards(spec, pool);
      }
      graph::CsrGraph g;
      {
        auto span = tracer.span("graph.build_csr_parallel");
        g = graph::build_csr_parallel(
            static_cast<graph::vid_t>(spec.num_vertices), shards, pool);
      }
      shards.clear();
      coloring::RunResult base;
      for (std::uint32_t p : {1U, kFleetDevices}) {
        coloring::RunOptions opts;
        opts.block_size = kBlock;
        opts.seed = seed;
        opts.num_devices = p;
        opts.partitioner = graph::PartitionKind::kContiguous;
        opts.device.host_threads = threads;
        if (timed) ++rec.attempted;
        const std::int64_t t0 = Tracer::now_ns();
        coloring::RunResult r;
        {
          auto span = tracer.span(p == 1 ? "coloring.run_scheme.D-ldg"
                                         : "multidev.run_scheme.D-ldg.P4");
          r = coloring::run_scheme(Scheme::kDataLdg, g, opts);
        }
        const double run_ms = ms_between(t0, Tracer::now_ns());
        coloring::VerifyResult v;
        {
          auto span = tracer.span("coloring.verify_coloring");
          v = coloring::verify_coloring(g, r.coloring);
        }
        if (!timed) continue;
        if (!v.proper) {
          rec.fail(family + " P=" + std::to_string(p) + ": improper");
        }
        const std::string sim_line =
            family + " P=" + std::to_string(p) +
            " n=" + std::to_string(g.num_vertices()) +
            " m=" + std::to_string(g.num_edges()) +
            " colors=" + std::to_string(r.num_colors) +
            " iters=" + std::to_string(r.iterations) +
            " ms=" + json_num(r.model_ms);
        if (!first) {
          if (reference[line] != sim_line) rec.fail("pass differs: " + sim_line);
          ++line;
          continue;
        }
        reference.push_back(sim_line);
        ++line;
        rec.digest.add(sim_line);
        model_ms.push_back(r.model_ms);
        colors.push_back(static_cast<double>(r.num_colors));
        rec.counts["coloring.rounds"] += r.iterations;
        const double insts = add_simt_counts(r, run_ms, rec);
        if (p == 1) {
          rec.counts["multidev.p1_warp_insts"] += insts;
          base = std::move(r);
          continue;
        }
        rec.counts["multidev.p4_warp_insts"] += insts;
        speedups.push_back(base.model_ms / r.model_ms);
        worst_ratio = std::max(worst_ratio,
                               static_cast<double>(r.num_colors) /
                                   static_cast<double>(base.num_colors));
        double batches = 0.0;
        double bytes = 0.0;
        double stall = 0.0;
        for (const prof::ExchangeRound& x : r.exchange_rounds) {
          batches += x.batches;
          bytes += static_cast<double>(x.bytes);
          stall += static_cast<double>(x.stall_cycles);
        }
        rec.counts["multidev.rounds_p4"] += r.exchange_rounds.size();
        rec.counts["multidev.exchange_batches"] += batches;
        rec.counts["multidev.d2d_bytes"] += bytes;
        rec.counts["multidev.stall_ms"] += opts.device.cycles_to_ms(
            static_cast<std::uint64_t>(stall));
        rec.counts["multidev.cut_edges"] += static_cast<double>(r.cut_edges);
      }
      if (timed) rec.op_ms.push_back(ms_between(family_begin, Tracer::now_ns()));
    }
  };

  // Set-up: a warm-up pass at 1/8 scale lets the pool, the allocator and
  // the simulator's lazily sized state settle before timing.
  const std::int64_t setup_begin = Tracer::now_ns();
  for (int i = 0; i < kSetups; ++i) {
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = Tracer::now_ns();
    fleet_pass(kFleetEntries / 8, false, false);
    rec.setup_s.push_back(ms_between(t0, Tracer::now_ns()) / 1e3);
    rec.setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }
  if (tracer.on()) {
    record_region(tracer, rec, "setup", setup_begin, Tracer::now_ns(), kSetups);
  }

  run_passes(
      tracer, rec, seconds, 2, "timed", [] { return process_cpu_s(); },
      [&](bool first) { fleet_pass(kFleetEntries, first, true); });

  rec.sim["p4_speedup_geomean"] = geomean(speedups);
  rec.sim["p4_colors_ratio_max"] = worst_ratio;
  rec.sim["gpu_model_ms_geomean"] = geomean(model_ms);
  rec.sim["colors_geomean"] = geomean(colors);
  rec.peak_rss_mb = peak_rss_mb();
}

// --- serve-mutate -----------------------------------------------------------

/// A speckle_serve child process on a unix socket. The destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& socket_path) {
    ::unlink(socket_path.c_str());
    std::vector<std::string> args = {
        bin, "--unix=" + socket_path, "--threads=" + std::to_string(kServeThreads),
        "--timeout-ms=" + std::to_string(kServeTimeoutMs)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // No on-disk graph cache: every LOAD generates its graph.
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "SPECKLE_GRAPH_CACHE=", 20) != 0) envp.push_back(*e);
    }
    envp.push_back(nullptr);
    if (::posix_spawn(&pid_, bin.c_str(), nullptr, nullptr, argv.data(),
                      envp.data()) != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + bin);
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Stop the server; returns its exit status (-1 if it had to be killed).
  int stop() {
    if (pid_ <= 0) return exit_status_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {  // 10 s grace period
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        return exit_status_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    exit_status_ = -1;
    return exit_status_;
  }

 private:
  pid_t pid_ = -1;
  int exit_status_ = -1;
};

/// One blocking client connection speaking the length-prefixed protocol.
class Connection {
 public:
  /// Connect, retrying while the server starts (up to ~20 s).
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (int attempt = 0; attempt < 2000; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("cannot connect to " + path);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request payload, return the response payload.
  std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> frame = serve::make_frame(payload);
    write_all(frame.data(), frame.size());
    std::uint8_t prefix[serve::kFramePrefixBytes];
    read_all(prefix, sizeof(prefix));
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) len = (len << 8) | prefix[i];
    if (len > serve::kMaxFrameBytes) throw std::runtime_error("oversized frame");
    std::vector<std::uint8_t> response(len);
    read_all(response.data(), len);
    return response;
  }

 private:
  void write_all(const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("send failed");
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  void read_all(std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t r = ::recv(fd_, p, n, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw std::runtime_error("connection closed");
      p += r;
      n -= static_cast<std::size_t>(r);
    }
  }

  int fd_ = -1;
};

/// A decoded response: status plus a reader over the body.
struct Response {
  serve::Status status = serve::Status::kInternal;
  std::vector<std::uint8_t> bytes;
  serve::WireReader body() const {
    return serve::WireReader(std::span<const std::uint8_t>(bytes).subspan(
        std::min<std::size_t>(bytes.size(), serve::kPayloadHeaderBytes)));
  }
};

Response decode(std::vector<std::uint8_t> bytes) {
  Response r;
  if (bytes.size() >= serve::kPayloadHeaderBytes) {
    r.status = static_cast<serve::Status>(bytes[0]);
  }
  r.bytes = std::move(bytes);
  return r;
}

std::vector<std::uint8_t> load_request(std::uint32_t id, std::uint64_t seed) {
  serve::WireWriter w;
  w.str(kServeGraph);
  w.u32(kServeDenom);
  w.u64(seed);
  return serve::make_request(serve::Opcode::kLoad, id, w.bytes());
}

std::vector<std::uint8_t> color_request(std::uint32_t id, std::uint32_t handle) {
  serve::WireWriter w;
  w.u32(handle);
  w.str("D-ldg");
  w.u8(0);
  return serve::make_request(serve::Opcode::kColor, id, w.bytes());
}

std::vector<std::uint8_t> query_request(std::uint32_t id, std::uint32_t handle,
                                        serve::QueryWhat what,
                                        std::uint64_t arg) {
  serve::WireWriter w;
  w.u32(handle);
  w.u8(static_cast<std::uint8_t>(what));
  w.u64(arg);
  return serve::make_request(serve::Opcode::kQuery, id, w.bytes());
}

std::vector<std::uint8_t> mutate_request(
    std::uint32_t id, std::uint32_t handle,
    const std::vector<graph::EdgeMutation>& batch) {
  serve::WireWriter w;
  w.u32(handle);
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const graph::EdgeMutation& m : batch) {
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.u64(m.u);
    w.u64(m.v);
  }
  return serve::make_request(serve::Opcode::kMutate, id, w.bytes());
}

/// The MUTATE response fields, all simulated quantities.
struct MutateReply {
  std::uint32_t applied = 0, skipped = 0, dirty = 0;
  std::uint8_t mode = 0;
  std::uint32_t colors = 0, iterations = 0;
  std::uint64_t model_ns = 0;
  std::string line() const {
    return "mutate applied=" + std::to_string(applied) +
           " skipped=" + std::to_string(skipped) +
           " dirty=" + std::to_string(dirty) + " mode=" + std::to_string(mode) +
           " colors=" + std::to_string(colors) +
           " iters=" + std::to_string(iterations) +
           " model_ns=" + std::to_string(model_ns);
  }
};

/// The seeded closed-loop client: per cycle 19 vertex-color QUERYs, one
/// ncolors QUERY, then one 64-edge MUTATE. Inserts pair vertices the client
/// saw share a color (so they create conflicts to repair); deletes remove
/// edges it inserted earlier.
class StreamClient {
 public:
  StreamClient(std::uint64_t seed, graph::vid_t n) : rng_(seed ^ 0x5e12eULL), n_(n) {}

  graph::vid_t next_query_vertex() {
    return static_cast<graph::vid_t>(rng_.next() % n_);
  }
  void learn(graph::vid_t v, std::uint32_t color) {
    if (!known_.emplace(v, color).second) return;
    by_color_[color].push_back(v);
  }

  std::vector<graph::EdgeMutation> next_batch() {
    std::vector<graph::EdgeMutation> batch;
    const std::uint32_t deletes =
        std::min<std::uint32_t>(kBatchDeletes,
                                static_cast<std::uint32_t>(inserted_.size()));
    for (std::uint32_t i = 0; i < deletes; ++i) {
      const std::size_t pick = rng_.next() % inserted_.size();
      const graph::Edge e = inserted_[pick];
      inserted_[pick] = inserted_.back();
      inserted_.pop_back();
      batch.push_back({graph::EdgeMutation::Kind::kDelete, e.src, e.dst});
    }
    while (batch.size() < kBatchEdges) {
      graph::vid_t u = 0;
      graph::vid_t v = 0;
      if (!same_color_pair(&u, &v)) {
        u = next_query_vertex();
        v = next_query_vertex();
      }
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!present_.insert({u, v}).second) continue;
      inserted_.push_back({u, v});
      batch.push_back({graph::EdgeMutation::Kind::kInsert, u, v});
    }
    for (const graph::EdgeMutation& m : batch) {
      if (m.kind == graph::EdgeMutation::Kind::kDelete) {
        present_.erase({m.u, m.v});
      }
      forget(m.u);  // recoloring may change the endpoints' colors
      forget(m.v);
    }
    return batch;
  }

  /// Edges this client inserted and has not deleted.
  const std::vector<graph::Edge>& inserted() const { return inserted_; }

 private:
  /// Two distinct learned vertices of one color, forgotten once paired so
  /// each is used at most once per batch. False when no color has two.
  bool same_color_pair(graph::vid_t* u, graph::vid_t* v) {
    std::vector<std::uint32_t> candidates;
    for (const auto& [color, bucket] : by_color_) {
      if (bucket.size() >= 2) candidates.push_back(color);
    }
    if (candidates.empty()) return false;
    const std::vector<graph::vid_t>& bucket =
        by_color_[candidates[rng_.next() % candidates.size()]];
    const std::size_t i = rng_.next() % bucket.size();
    const std::size_t j = (i + 1 + rng_.next() % (bucket.size() - 1)) %
                          bucket.size();
    *u = bucket[i];
    *v = bucket[j];
    forget(*u);
    forget(*v);
    return true;
  }

  void forget(graph::vid_t v) {
    auto it = known_.find(v);
    if (it == known_.end()) return;
    std::vector<graph::vid_t>& bucket = by_color_[it->second];
    bucket.erase(std::find(bucket.begin(), bucket.end(), v));
    if (bucket.empty()) by_color_.erase(it->second);
    known_.erase(it);
  }

  support::Xoshiro256 rng_;
  graph::vid_t n_;
  std::unordered_map<graph::vid_t, std::uint32_t> known_;
  std::map<std::uint32_t, std::vector<graph::vid_t>> by_color_;
  std::vector<graph::Edge> inserted_;
  std::set<std::pair<graph::vid_t, graph::vid_t>> present_;
};

void run_serve_mutate(std::uint64_t seed, double seconds, std::uint32_t threads,
                      const std::string& serve_bin,
                      const std::string& socket_path, Tracer& tracer,
                      Record& rec) {
  rec.params["graph"] = std::string(kServeGraph) + " denom " +
                        std::to_string(kServeDenom) + " (LOAD), D-ldg (COLOR)";
  rec.params["server"] = "speckle_serve --unix --threads=" +
                         std::to_string(kServeThreads) + " --timeout-ms=" +
                         std::to_string(kServeTimeoutMs);
  rec.params["stream"] = "closed loop, 1 connection; per cycle 19 vertex + 1 "
                         "ncolors QUERY, 1 MUTATE of 64 edges (16 deletes)";

  // Set-up: start a server, LOAD, COLOR. Repeated; the last one serves.
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Connection> conn;
  std::uint32_t handle = 0;
  std::uint64_t n = 0;
  std::uint32_t id = 1;
  std::string color_line;
  for (int i = 0; i < kSetups; ++i) {
    conn.reset();
    server.reset();
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = Tracer::now_ns();
    server = std::make_unique<ServerProcess>(serve_bin, socket_path);
    conn = std::make_unique<Connection>(socket_path);
    const std::int64_t t1 = Tracer::now_ns();
    Response load = decode(conn->call(load_request(id++, seed)));
    const std::int64_t t2 = Tracer::now_ns();
    if (load.status != serve::Status::kOk) {
      throw std::runtime_error("LOAD failed");
    }
    serve::WireReader lb = load.body();
    handle = lb.u32();
    n = lb.u64();
    Response color = decode(conn->call(color_request(id++, handle)));
    const std::int64_t t3 = Tracer::now_ns();
    if (color.status != serve::Status::kOk) {
      throw std::runtime_error("COLOR failed");
    }
    serve::WireReader cb = color.body();
    const std::uint32_t colors = cb.u32();
    const std::uint32_t iters = cb.u32();
    cb.u8();
    const std::uint64_t model_ns = cb.u64();
    color_line = "color colors=" + std::to_string(colors) +
                 " iters=" + std::to_string(iters) +
                 " model_ns=" + std::to_string(model_ns);
    rec.setup_s.push_back(ms_between(t0, t3) / 1e3);
    rec.setup_cpu_s.push_back(process_cpu_s() - cpu0 +
                              process_cpu_s(server->pid()));
    rec.samples["serve.load_ms"].push_back(ms_between(t1, t2));
    rec.samples["serve.first_color_ms"].push_back(ms_between(t2, t3));
  }
  rec.digest.add(color_line);

  // The timed stream.
  StreamClient client(seed, static_cast<graph::vid_t>(n));
  std::vector<std::vector<graph::EdgeMutation>> batches;
  std::vector<MutateReply> replies;
  std::vector<std::vector<std::uint8_t>> payloads;  // for the session replay
  std::vector<double> mutate_colors;
  std::vector<double> mutate_model_ms;
  const bool traced_run = tracer.on();
  const auto request = [&](const std::vector<std::uint8_t>& payload,
                           const char* span_name) {
    ++rec.attempted;
    if (traced_run) payloads.push_back(payload);
    const std::int64_t t0 = Tracer::now_ns();
    Response r;
    {
      auto span = tracer.span(span_name, rec.attempted);
      r = decode(conn->call(payload));
    }
    rec.op_ms.push_back(ms_between(t0, Tracer::now_ns()));
    if (r.status != serve::Status::kOk) {
      rec.fail(std::string(span_name) + ": status " +
               serve::status_name(r.status));
    }
    return r;
  };
  const auto cycle = [&](bool /*unused*/) {
    for (std::uint32_t q = 0; q + 1 < kQueriesPerCycle; ++q) {
      const graph::vid_t v = client.next_query_vertex();
      Response r = request(
          query_request(id++, handle, serve::QueryWhat::kVertexColor, v),
          "serve.roundtrip.query");
      rec.samples["query_us"].push_back(rec.op_ms.back() * 1e3);
      serve::WireReader b = r.body();
      const std::uint32_t color = b.u32();
      if (r.status == serve::Status::kOk) client.learn(v, color);
      if (replies.size() < kMinMutates) {
        rec.digest.add("query " + std::to_string(v) + " " +
                       std::to_string(color));
      }
    }
    Response nc = request(
        query_request(id++, handle, serve::QueryWhat::kNumColors, 0),
        "serve.roundtrip.query");
    rec.samples["query_us"].push_back(rec.op_ms.back() * 1e3);
    if (replies.size() < kMinMutates) {
      rec.digest.add("ncolors " + std::to_string(nc.body().u32()));
    }

    std::vector<graph::EdgeMutation> batch = client.next_batch();
    Response m = request(mutate_request(id++, handle, batch),
                         "serve.roundtrip.mutate");
    rec.samples["mutate_ms"].push_back(rec.op_ms.back());
    serve::WireReader b = m.body();
    MutateReply reply;
    reply.applied = b.u32();
    reply.skipped = b.u32();
    reply.dirty = b.u32();
    reply.mode = b.u8();
    reply.colors = b.u32();
    reply.iterations = b.u32();
    reply.model_ns = b.u64();
    if (replies.size() < kMinMutates) {
      rec.digest.add(reply.line());
      mutate_colors.push_back(reply.colors);
      mutate_model_ms.push_back(static_cast<double>(reply.model_ns) / 1e6);
    }
    replies.push_back(reply);
    batches.push_back(std::move(batch));
  };
  const std::int64_t stream_begin = Tracer::now_ns();
  const pid_t server_pid = server->pid();
  run_passes(
      tracer, rec, seconds, static_cast<int>(kMinMutates), "timed",
      [server_pid] { return process_cpu_s() + process_cpu_s(server_pid); },
      cycle);
  const double stream_s = ms_between(stream_begin, Tracer::now_ns()) / 1e3;
  rec.counts["serve.stream_requests"] = static_cast<double>(rec.attempted);
  rec.counts["serve.stream_s"] = stream_s;

  // Correctness: every inserted edge still present has distinct endpoint
  // colors, and the final color count matches the in-process mirror below.
  for (const graph::Edge& e : client.inserted()) {
    rec.attempted += 2;
    Response a = decode(conn->call(
        query_request(id++, handle, serve::QueryWhat::kVertexColor, e.src)));
    Response b = decode(conn->call(
        query_request(id++, handle, serve::QueryWhat::kVertexColor, e.dst)));
    if (a.status != serve::Status::kOk || b.status != serve::Status::kOk) {
      rec.fail("endpoint query failed");
    } else if (a.body().u32() == b.body().u32()) {
      rec.fail("inserted edge " + std::to_string(e.src) + "-" +
               std::to_string(e.dst) + " is monochromatic");
    }
  }
  const Response final_nc = decode(conn->call(
      query_request(id++, handle, serve::QueryWhat::kNumColors, 0)));
  const std::uint32_t server_colors = final_nc.body().u32();
  rec.peak_rss_mb = peak_rss_mb(server->pid());
  conn.reset();
  const int exit_status = server->stop();
  if (exit_status != 0) {
    rec.fail("speckle_serve exited with status " + std::to_string(exit_status));
  }
  ::unlink(socket_path.c_str());

  // In-process mirror of the session: the same graph, the same COLOR, and
  // each batch through the MUTATE lifecycle session.hpp documents, with the
  // session's options. Every reply must match the server's exactly.
  const std::int64_t mirror_begin = Tracer::now_ns();
  graph::CsrGraph g;
  {
    const graph::GeneratorSpec spec =
        graph::suite_generator_spec(kServeGraph, kServeDenom, seed);
    graph::EdgeList edges;
    {
      auto span = tracer.span("graph.generate_edges_serial");
      edges = graph::generate_edges_serial(spec);
    }
    auto span = tracer.span("graph.build_csr");
    g = graph::build_csr(static_cast<graph::vid_t>(spec.num_vertices), edges);
  }
  coloring::RunOptions opts;
  opts.block_size = kBlock;
  opts.scale_caches(kServeDenom);
  opts.device.host_threads = threads;
  coloring::RunResult colored;
  std::int64_t t0 = Tracer::now_ns();
  {
    auto span = tracer.span("coloring.run_scheme.D-ldg");
    colored = coloring::run_scheme(Scheme::kDataLdg, g, opts);
  }
  add_simt_counts(colored, ms_between(t0, Tracer::now_ns()), rec);
  rec.counts["coloring.rounds"] += colored.iterations;
  ++rec.attempted;
  const std::string mirror_color_line =
      "color colors=" + std::to_string(colored.num_colors) +
      " iters=" + std::to_string(colored.iterations) +
      " model_ns=" + std::to_string(static_cast<std::uint64_t>(
                         colored.model_ms * 1e6));
  if (mirror_color_line != color_line) {
    rec.fail("mirror COLOR differs: " + mirror_color_line);
  }
  coloring::RecolorOptions ro;
  ro.block_size = kBlock;
  ro.use_ldg = true;
  ro.device = simt::DeviceConfig::k20c().scaled(kServeDenom);
  ro.device.host_threads = threads;
  coloring::Coloring colors = std::move(colored.coloring);
  std::uint32_t incremental = 0;
  double dirty_total = 0.0;
  graph::CsrGraph prefix_graph;
  coloring::color_t prefix_colors = 0;
  const std::int64_t lifecycle_begin = Tracer::now_ns();
  for (std::size_t i = 0; i < batches.size(); ++i) {
    graph::MutationOutcome outcome;
    {
      auto span = tracer.span("graph.apply_mutations", i + 1);
      outcome = graph::apply_mutations(g, batches[i]);
    }
    std::vector<graph::vid_t> dirty;
    {
      auto span = tracer.span("coloring.dirty_from_inserts", i + 1);
      dirty = coloring::dirty_from_inserts(colors, outcome.inserted);
    }
    coloring::RecolorResult r;
    {
      auto span = tracer.span("coloring.recolor_region", i + 1);
      r = coloring::recolor_region(outcome.graph, colors, dirty, ro);
    }
    MutateReply mine;
    mine.applied = outcome.applied;
    mine.skipped = outcome.skipped;
    mine.dirty = static_cast<std::uint32_t>(dirty.size());
    mine.mode = r.full ? 2 : 1;
    mine.colors = r.num_colors;
    mine.iterations = r.iterations;
    mine.model_ns = static_cast<std::uint64_t>(r.model_ms * 1e6);
    if (mine.line() != replies[i].line()) {
      rec.fail("MUTATE " + std::to_string(i) + " differs from mirror: " +
               replies[i].line() + " vs " + mine.line());
    }
    incremental += r.full ? 0 : 1;
    dirty_total += static_cast<double>(dirty.size());
    colors = std::move(r.coloring);
    g = std::move(outcome.graph);
    if (i + 1 == kMinMutates) {  // the end of the stream's fixed prefix
      prefix_graph = g;
      prefix_colors = r.num_colors;
    }
  }
  const std::int64_t lifecycle_end = Tracer::now_ns();
  ++rec.attempted;
  coloring::VerifyResult v;
  t0 = Tracer::now_ns();
  {
    auto span = tracer.span("coloring.verify_coloring");
    v = coloring::verify_coloring(g, colors);
  }
  rec.samples["verify_ms"].push_back(ms_between(t0, Tracer::now_ns()));
  if (!v.proper) rec.fail("mirror coloring improper after the stream");
  const coloring::color_t mirror_colors = coloring::count_colors(colors);
  ++rec.attempted;
  if (mirror_colors != server_colors) {
    rec.fail("final ncolors: server " + std::to_string(server_colors) +
             ", mirror " + std::to_string(mirror_colors));
  }

  coloring::RunResult scratch;
  t0 = Tracer::now_ns();
  {
    auto span = tracer.span("coloring.run_scheme.D-ldg");
    scratch = coloring::run_scheme(Scheme::kDataLdg, prefix_graph, opts);
  }
  add_simt_counts(scratch, ms_between(t0, Tracer::now_ns()), rec);
  rec.counts["coloring.rounds"] += scratch.iterations;
  rec.counts["coloring.incremental_frac"] =
      static_cast<double>(incremental) / static_cast<double>(batches.size());
  rec.counts["coloring.dirty_per_batch"] =
      dirty_total / static_cast<double>(batches.size());
  // Simulated metrics cover the stream's fixed prefix only, so they repeat
  // exactly whatever the host speed.
  rec.sim["color_drift"] = static_cast<double>(prefix_colors) /
                           static_cast<double>(scratch.num_colors);
  rec.digest.add("drift " + json_num(rec.sim["color_drift"]));
  rec.sim["colors_geomean"] = geomean(mutate_colors);
  rec.sim["gpu_model_ms_geomean"] = geomean(mutate_model_ms);

  if (!traced_run) return;
  record_region(tracer, rec, "mirror_setup", mirror_begin, lifecycle_begin, 1);
  record_region(tracer, rec, "mirror", lifecycle_begin, lifecycle_end,
                batches.size());

  // Session::handle replay: the same request stream in process, no socket.
  serve::GraphRegistry registry;
  serve::SessionConfig config;
  config.block_size = kBlock;
  config.host_threads = kServeThreads;
  serve::Session session(registry, config);
  session.handle(load_request(0, seed));
  session.handle(color_request(0, 1));
  const std::int64_t replay_begin = Tracer::now_ns();
  for (const std::vector<std::uint8_t>& payload : payloads) {
    const bool mutate =
        payload[0] == static_cast<std::uint8_t>(serve::Opcode::kMutate);
    const std::int64_t t0 = Tracer::now_ns();
    {
      auto span = tracer.span(mutate ? "serve.Session::handle.mutate"
                                     : "serve.Session::handle.query");
      session.handle(payload);
    }
    const double ms = ms_between(t0, Tracer::now_ns());
    if (mutate) {
      rec.samples["session.mutate_ms"].push_back(ms);
    } else {
      rec.samples["session.query_us"].push_back(ms * 1e3);
    }
  }
  record_region(tracer, rec, "session_replay", replay_begin, Tracer::now_ns(),
                payloads.size());
}

}  // namespace

int main(int argc, char** argv) {
  support::Options opts(argc, argv);
  const std::string workload = opts.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const double seconds = opts.get_double("seconds", 10.0);
  const bool trace = opts.get_int("trace", 0) != 0;
  const auto threads = static_cast<std::uint32_t>(opts.get_int("threads", 1));
  const std::string serve_bin = opts.get_string("serve-bin", "");
  const std::string socket_path = opts.get_string("socket", "");
  const std::string out_path = opts.get_string("out", "");
  const std::string trace_path = opts.get_string("trace-out", "");
  opts.validate({"workload", "seed", "seconds", "trace", "threads",
                 "serve-bin", "socket", "out", "trace-out"});
  if (seed == 0 || threads == 0 || out_path.empty()) {
    std::fprintf(stderr, "speckbench: need --out, seed >= 1, threads >= 1\n");
    return 2;
  }

  Tracer tracer(trace);
  Record rec;
  try {
    if (workload == "suite-sim") {
      run_suite_sim(seed, seconds, threads, tracer, rec);
    } else if (workload == "fleet-p4") {
      run_fleet_p4(seed, seconds, threads, tracer, rec);
    } else if (workload == "serve-mutate") {
      if (serve_bin.empty() || socket_path.empty()) {
        std::fprintf(stderr, "speckbench: serve-mutate needs --serve-bin "
                             "and --socket\n");
        return 2;
      }
      run_serve_mutate(seed, seconds, threads, serve_bin, socket_path, tracer,
                       rec);
    } else {
      std::fprintf(stderr, "speckbench: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "speckbench: %s: %s\n", workload.c_str(), e.what());
    return 2;
  }
  if (trace && !trace_path.empty() && !tracer.write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "speckbench: cannot write %s\n", trace_path.c_str());
  }

  std::ofstream out(out_path);
  out << rec.to_json();
  if (!out) {
    std::fprintf(stderr, "speckbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}
