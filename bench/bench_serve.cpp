// bench_serve: the serve subsystem's two headline numbers.
//
// 1. Sustained throughput and p99 latency of a mixed query+mutation request
//    stream through the full protocol codec + session dispatcher, in
//    process (MemoryStream semantics: no kernel round trips, so the number
//    is the server's own cost, not the transport's).
// 2. Incremental recoloring vs from-scratch: for mutation batches of <=1%
//    of the edge set, the model-time ratio between recolor_region seeded
//    with the dirty set and a full data_color of the mutated graph. The
//    acceptance bar is >=5x on small batches on at least two Table I
//    graphs; every post-mutation coloring is verified proper here.
//
//   bench_serve --denom=16 --graphs=Hamrle3,G3_circuit --requests=400
//               --threads=4 --json=BENCH_serve.json   (one command line)
//
// Latency/req/s are wall-clock (machine-dependent); colors, iterations,
// dirty sizes and model_ms are simulated and bit-identical at any
// --threads value.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "coloring/data.hpp"
#include "coloring/recolor.hpp"
#include "graph/cache.hpp"
#include "graph/mutate.hpp"
#include "graph/suite.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/session.hpp"
#include "support/options.hpp"

namespace {

using namespace speckle;
using namespace speckle::serve;

struct Config {
  std::uint32_t denom = 16;
  std::uint64_t seed = 1;
  std::uint32_t block = 128;
  std::uint32_t threads = 0;
  std::uint32_t requests = 400;
  std::vector<std::string> graphs = {"Hamrle3", "G3_circuit"};
  std::string json;
  std::string graph_cache;
};

struct ThroughputRow {
  std::string graph;
  std::uint32_t requests = 0;
  double reqs_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t mutates = 0;
  std::uint64_t incremental = 0;
  std::uint64_t full = 0;
};

struct IncrementalRow {
  std::string graph;
  std::uint32_t batch_edges = 0;
  double batch_pct = 0.0;  ///< of the undirected edge count
  std::uint32_t dirty = 0;
  std::uint32_t iterations = 0;
  double incremental_ms = 0.0;
  double scratch_ms = 0.0;
  double speedup = 0.0;
  bool proper = false;
};

std::uint32_t host_threads(const Config& cfg) {
  if (cfg.threads > 0) return cfg.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// ---------------------------------------------------------------------------
// Part 1: mixed-stream throughput through the protocol codec + session.

ThroughputRow run_throughput(const Config& cfg, const std::string& name) {
  GraphRegistry registry;
  SessionConfig session_cfg;
  session_cfg.block_size = cfg.block;
  session_cfg.host_threads = host_threads(cfg);
  session_cfg.graph_cache = cfg.graph_cache;
  Session session(registry, session_cfg);

  std::uint32_t id = 0;
  auto send = [&](const std::vector<std::uint8_t>& payload) {
    return session.handle(payload);
  };

  WireWriter load_body;
  load_body.str(name);
  load_body.u32(cfg.denom);
  load_body.u64(cfg.seed ? cfg.seed : 0x5eed);
  std::vector<std::uint8_t> load_resp =
      send(make_request(Opcode::kLoad, ++id, load_body.bytes()));
  WireReader lr(load_resp);
  lr.u8();
  lr.u32();
  const std::uint32_t handle = lr.u32();
  const auto n = static_cast<graph::vid_t>(lr.u64());

  WireWriter color_body;
  color_body.u32(handle);
  color_body.str("D-ldg");
  color_body.u8(0);
  send(make_request(Opcode::kColor, ++id, color_body.bytes()));

  ThroughputRow row;
  row.graph = name;
  row.requests = cfg.requests;
  std::vector<double> latency_us;
  latency_us.reserve(cfg.requests);
  std::mt19937_64 rng(cfg.seed * 7919 + 17);
  double total_us = 0.0;

  for (std::uint32_t i = 0; i < cfg.requests; ++i) {
    std::vector<std::uint8_t> payload;
    const std::uint64_t pick = rng() % 100;
    if (pick < 70) {
      WireWriter body;
      body.u32(handle);
      body.u8(static_cast<std::uint8_t>(QueryWhat::kVertexColor));
      body.u64(rng() % n);
      payload = make_request(Opcode::kQuery, ++id, body.bytes());
    } else if (pick < 80) {
      WireWriter body;
      body.u32(handle);
      body.u8(static_cast<std::uint8_t>(QueryWhat::kNumColors));
      body.u64(0);
      payload = make_request(Opcode::kQuery, ++id, body.bytes());
    } else if (pick < 95) {
      WireWriter body;
      body.u32(handle);
      body.u32(4);
      for (int e = 0; e < 4; ++e) {
        body.u8(e == 3 ? 1 : 0);  // 3 inserts, 1 delete per batch
        body.u64(rng() % n);
        body.u64(rng() % n);
      }
      payload = make_request(Opcode::kMutate, ++id, body.bytes());
      ++row.mutates;
    } else {
      payload = make_request(Opcode::kStats, ++id);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::uint8_t> response = send(payload);
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    latency_us.push_back(us);
    total_us += us;
    if (response.empty() ||
        response[0] != static_cast<std::uint8_t>(Status::kOk)) {
      std::fprintf(stderr, "bench_serve: request %u failed\n", id);
    }
  }
  row.incremental = session.stats().incremental_recolors;
  row.full = session.stats().full_recolors;
  row.reqs_per_sec = cfg.requests / (total_us / 1e6);

  std::sort(latency_us.begin(), latency_us.end());
  auto percentile = [&](double p) {
    const auto idx = static_cast<std::size_t>(p * (latency_us.size() - 1));
    return latency_us[idx];
  };
  row.p50_us = percentile(0.50);
  row.p99_us = percentile(0.99);
  return row;
}

// ---------------------------------------------------------------------------
// Part 2: incremental recolor vs from-scratch on small batches.

IncrementalRow run_incremental(const Config& cfg, const std::string& name,
                               std::uint32_t batch_edges) {
  const graph::CsrGraph g = graph::make_suite_graph_cached(
      name, cfg.denom, cfg.seed ? cfg.seed : 0x5eed, cfg.graph_cache);
  coloring::DataOptions dopts;
  dopts.block_size = cfg.block;
  dopts.use_ldg = true;
  dopts.device = simt::DeviceConfig::k20c().scaled(cfg.denom);
  dopts.device.host_threads = host_threads(cfg);
  const coloring::GpuResult base = coloring::data_color(g, dopts);

  // Bias half the batch toward same-color endpoint pairs so the dirty set
  // is non-trivial — the honest case for incremental recoloring; uniform
  // random pairs frequently collide on zero conflicts.
  const graph::vid_t n = g.num_vertices();
  std::mt19937_64 rng(cfg.seed * 104729 + batch_edges);
  std::vector<graph::EdgeMutation> batch;
  batch.reserve(batch_edges);
  while (batch.size() < batch_edges) {
    const auto u = static_cast<graph::vid_t>(rng() % n);
    graph::vid_t v = static_cast<graph::vid_t>(rng() % n);
    if (batch.size() % 2 == 0) {
      // Walk forward to a vertex sharing u's color (bounded scan).
      for (graph::vid_t probe = 1; probe < 4096; ++probe) {
        const graph::vid_t w = (u + probe) % n;
        if (base.coloring[w] == base.coloring[u]) {
          v = w;
          break;
        }
      }
    }
    if (u == v) continue;
    batch.push_back({graph::EdgeMutation::Kind::kInsert, u, v});
  }

  const graph::MutationOutcome outcome = graph::apply_mutations(g, batch);
  const std::vector<graph::vid_t> dirty =
      coloring::dirty_from_inserts(base.coloring, outcome.inserted);

  const coloring::RecolorResult incremental =
      coloring::recolor_region(outcome.graph, base.coloring, dirty, dopts);
  const coloring::GpuResult scratch =
      coloring::data_color(outcome.graph, dopts);

  IncrementalRow row;
  row.graph = name;
  row.batch_edges = batch_edges;
  row.batch_pct = 100.0 * batch_edges / (g.num_edges() / 2.0);
  row.dirty = static_cast<std::uint32_t>(dirty.size());
  row.iterations = incremental.iterations;
  row.incremental_ms = incremental.model_ms;
  row.scratch_ms = scratch.model_ms;
  row.speedup = incremental.model_ms > 0.0
                    ? scratch.model_ms / incremental.model_ms
                    : 0.0;
  row.proper =
      coloring::verify_coloring(outcome.graph, incremental.coloring).proper;
  return row;
}

// ---------------------------------------------------------------------------

void write_json(const Config& cfg, const std::vector<ThroughputRow>& tput,
                const std::vector<IncrementalRow>& incr) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"benchmark\": \"bench_serve --denom=" << cfg.denom
      << " --requests=" << cfg.requests << "\",\n";
  out << "  \"machine\": \"simulated NVIDIA K20c (deterministic); latency "
         "is host wall-clock\",\n";
  out << "  \"notes\": [\n";
  out << "    \"throughput: mixed stream (70% vertex query / 10% ncolors / "
         "15% 4-edge mutate / 5% stats) through the protocol codec and "
         "session dispatcher, in process\",\n";
  out << "    \"incremental: model-ms ratio of dirty-seeded recolor_region "
         "vs full data_color on the mutated graph; batches are <=1% of the "
         "undirected edge set; proper=coloring verified after mutation\"\n";
  out << "  ],\n";
  out << "  \"throughput\": [\n";
  for (std::size_t i = 0; i < tput.size(); ++i) {
    const ThroughputRow& r = tput[i];
    out << "    {\"graph\": \"" << r.graph
        << "\", \"requests\": " << r.requests
        << ", \"reqs_per_sec\": " << r.reqs_per_sec
        << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
        << ", \"mutates\": " << r.mutates
        << ", \"incremental_recolors\": " << r.incremental
        << ", \"full_recolors\": " << r.full << "}"
        << (i + 1 < tput.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"incremental\": [\n";
  for (std::size_t i = 0; i < incr.size(); ++i) {
    const IncrementalRow& r = incr[i];
    out << "    {\"graph\": \"" << r.graph
        << "\", \"batch_edges\": " << r.batch_edges
        << ", \"batch_pct\": " << r.batch_pct << ", \"dirty\": " << r.dirty
        << ", \"iterations\": " << r.iterations
        << ", \"incremental_model_ms\": " << r.incremental_ms
        << ", \"scratch_model_ms\": " << r.scratch_ms
        << ", \"speedup\": " << r.speedup
        << ", \"proper\": " << (r.proper ? "true" : "false") << "}"
        << (i + 1 < incr.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::ofstream file(cfg.json);
  file << out.str();
  std::printf("wrote %s\n", cfg.json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  support::Options opts(argc, argv);
  Config cfg;
  cfg.denom = static_cast<std::uint32_t>(opts.get_int("denom", 16));
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  cfg.block = static_cast<std::uint32_t>(opts.get_int("block", 128));
  cfg.threads = static_cast<std::uint32_t>(opts.get_int("threads", 0));
  cfg.requests = static_cast<std::uint32_t>(opts.get_int("requests", 400));
  cfg.json = opts.get_string("json", "");
  cfg.graph_cache =
      graph::resolve_graph_cache_dir(opts.get_string("graph-cache", ""));
  const std::string graphs = opts.get_string("graphs", "");
  opts.validate(
      {"denom", "seed", "block", "threads", "requests", "json", "graphs",
       "graph-cache"});
  if (!graphs.empty()) {
    cfg.graphs.clear();
    std::istringstream in(graphs);
    std::string name;
    while (std::getline(in, name, ',')) cfg.graphs.push_back(name);
  }

  std::printf("== serve throughput (mixed stream, %u requests) ==\n",
              cfg.requests);
  std::printf("%-12s %10s %10s %10s %8s %6s %5s\n", "graph", "req/s",
              "p50_us", "p99_us", "mutates", "incr", "full");
  std::vector<ThroughputRow> tput;
  for (const std::string& name : cfg.graphs) {
    tput.push_back(run_throughput(cfg, name));
    const ThroughputRow& r = tput.back();
    std::printf("%-12s %10.0f %10.1f %10.1f %8llu %6llu %5llu\n",
                r.graph.c_str(), r.reqs_per_sec, r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.mutates),
                static_cast<unsigned long long>(r.incremental),
                static_cast<unsigned long long>(r.full));
  }

  std::printf("\n== incremental recolor vs from-scratch ==\n");
  std::printf("%-12s %6s %8s %6s %5s %12s %12s %8s %7s\n", "graph", "batch",
              "pct", "dirty", "iters", "incr_ms", "scratch_ms", "speedup",
              "proper");
  std::vector<IncrementalRow> incr;
  bool all_proper = true;
  for (const std::string& name : cfg.graphs) {
    for (const std::uint32_t batch : {8u, 64u, 256u}) {
      incr.push_back(run_incremental(cfg, name, batch));
      const IncrementalRow& r = incr.back();
      all_proper = all_proper && r.proper;
      std::printf("%-12s %6u %7.3f%% %6u %5u %12.5f %12.5f %7.1fx %7s\n",
                  r.graph.c_str(), r.batch_edges, r.batch_pct, r.dirty,
                  r.iterations, r.incremental_ms, r.scratch_ms, r.speedup,
                  r.proper ? "yes" : "NO");
    }
  }

  if (!cfg.json.empty()) write_json(cfg, tput, incr);
  return all_proper ? 0 : 1;
}
