#include "serve/session.hpp"

#include <bit>
#include <exception>
#include <utility>

#include "coloring/recolor.hpp"
#include "coloring/refine.hpp"
#include "graph/analysis.hpp"
#include "graph/cache.hpp"
#include "graph/mutate.hpp"
#include "graph/suite.hpp"
#include "support/deadline.hpp"

namespace speckle::serve {
namespace {

std::uint64_t to_model_ns(double model_ms) {
  return static_cast<std::uint64_t>(model_ms * 1e6);
}

}  // namespace

std::vector<std::uint8_t> Session::handle(
    std::span<const std::uint8_t> payload) {
  ++stats_.requests;
  if (payload.size() < kPayloadHeaderBytes) {
    ++stats_.errors;
    return make_error(Status::kBadFrame, 0, "payload shorter than header");
  }
  WireReader reader(payload);
  const std::uint8_t op_byte = reader.u8();
  const std::uint32_t request_id = reader.u32();
  if (op_byte < 1 || op_byte > kNumOpcodes) {
    ++stats_.errors;
    return make_error(Status::kBadOpcode, request_id,
                      "unknown opcode " + std::to_string(op_byte));
  }
  const auto op = static_cast<Opcode>(op_byte);
  ++stats_.per_opcode[op_byte - 1];
  std::vector<std::uint8_t> response = dispatch(op, request_id, reader);
  if (!response.empty() &&
      response[0] != static_cast<std::uint8_t>(Status::kOk)) {
    ++stats_.errors;
  }
  return response;
}

std::vector<std::uint8_t> Session::dispatch(Opcode op,
                                            std::uint32_t request_id,
                                            WireReader& body) try {
  switch (op) {
    case Opcode::kLoad: return do_load(request_id, body);
    case Opcode::kColor: return do_color(request_id, body);
    case Opcode::kQuery: return do_query(request_id, body);
    case Opcode::kMutate: return do_mutate(request_id, body);
    case Opcode::kStats: return do_stats(request_id, body);
  }
  return make_error(Status::kInternal, request_id, "unreachable opcode");
} catch (const support::DeadlineExceeded&) {
  return make_error(Status::kTimeout, request_id, "request deadline expired");
}

Session::GraphState* Session::find_graph(std::uint32_t handle) {
  auto it = graphs_.find(handle);
  return it == graphs_.end() ? nullptr : &it->second;
}

// LOAD body:  str key | u32 denom | u64 seed
// response:   u32 handle | u64 n | u64 m | u8 fresh
std::vector<std::uint8_t> Session::do_load(std::uint32_t request_id,
                                           WireReader& body) {
  const std::string key = body.str();
  const std::uint32_t denom = body.u32();
  const std::uint64_t seed = body.u64();
  if (!body.done()) {
    return make_error(Status::kBadRequest, request_id, "malformed LOAD body");
  }
  if (graph::find_suite_entry(key) == nullptr) {
    return make_error(Status::kBadRequest, request_id,
                      "unknown suite graph '" + key + "'");
  }
  if (!graph::valid_suite_denom(denom)) {
    return make_error(Status::kBadRequest, request_id,
                      std::has_single_bit(denom)
                          ? "denom must be at most 2^19"
                          : "denom must be a power of two");
  }

  if (seed == 0) {
    return make_error(Status::kBadRequest, request_id,
                      "suite seed 0 is reserved; pass a nonzero seed");
  }

  // Graphs dedup on the full generation key.
  const std::string registry_key =
      key + "/" + std::to_string(denom) + "/" + std::to_string(seed);
  GraphRegistry::LoadResult loaded;
  try {
    loaded = registry_.load(registry_key, [&]() -> GraphRegistry::GraphPtr {
      return std::make_shared<const graph::CsrGraph>(
          graph::make_suite_graph_cached(key, denom, seed,
                                         config_.graph_cache));
    });
  } catch (const std::exception& e) {
    return make_error(Status::kLoadFailed, request_id, e.what());
  }

  GraphState state;
  state.base = loaded.graph;
  state.denom = denom;
  state.device = simt::DeviceConfig::k20c().scaled(denom);
  state.device.host_threads = config_.host_threads;
  support::check_deadline();
  const std::uint32_t handle = next_handle_++;
  const graph::CsrGraph& g = *state.base;

  WireWriter resp;
  resp.u32(handle);
  resp.u64(g.num_vertices());
  resp.u64(g.num_edges());
  resp.u8(loaded.fresh ? 1 : 0);
  graphs_.emplace(handle, std::move(state));
  return make_response(Status::kOk, request_id, resp.bytes());
}

// COLOR body: u32 handle | str scheme | u8 flags (bit0: refine after)
// response:   u32 num_colors | u32 iterations | u8 cached | u64 model_ns
std::vector<std::uint8_t> Session::do_color(std::uint32_t request_id,
                                            WireReader& body) {
  const std::uint32_t handle = body.u32();
  const std::string scheme_name = body.str();
  const std::uint8_t flags = body.u8();
  if (!body.done()) {
    return make_error(Status::kBadRequest, request_id, "malformed COLOR body");
  }
  GraphState* state = find_graph(handle);
  if (state == nullptr) {
    return make_error(Status::kUnknownGraph, request_id,
                      "no graph with handle " + std::to_string(handle));
  }
  const auto scheme = coloring::find_scheme(scheme_name);
  if (!scheme) {
    return make_error(Status::kUnknownScheme, request_id,
                      "unknown scheme '" + scheme_name + "'");
  }
  const bool refine = (flags & 1U) != 0;

  // Session-level cache: an unchanged graph colored with the same scheme
  // replays the stored result instead of re-simulating.
  const bool cached = state->colored && state->scheme == *scheme && !refine;
  if (!cached) {
    coloring::RunOptions opts;
    opts.block_size = config_.block_size;
    opts.scale_caches(state->denom);
    opts.device.host_threads = config_.host_threads;
    coloring::RunResult r =
        coloring::run_scheme(*scheme, state->current(), opts);
    if (refine) {
      coloring::RefineResult rr = coloring::iterated_greedy(
          state->current(), std::move(r.coloring));
      r.coloring = std::move(rr.coloring);
      r.num_colors = rr.colors_after;
    }
    support::check_deadline();
    state->colored = true;
    state->scheme = *scheme;
    state->coloring = std::move(r.coloring);
    state->num_colors = r.num_colors;
    state->color_iterations = r.iterations;
    state->color_model_ns = to_model_ns(r.model_ms);
  }

  WireWriter resp;
  resp.u32(state->num_colors);
  resp.u32(state->color_iterations);
  resp.u8(cached ? 1 : 0);
  resp.u64(state->color_model_ns);
  return make_response(Status::kOk, request_id, resp.bytes());
}

// QUERY body: u32 handle | u8 what | u64 arg
// response:   kVertexColor → u32 color
//             kNumColors   → u32 num_colors
//             kGraphStats  → u64 n | u64 m | u64 min_deg | u64 max_deg
std::vector<std::uint8_t> Session::do_query(std::uint32_t request_id,
                                            WireReader& body) {
  const std::uint32_t handle = body.u32();
  const std::uint8_t what_byte = body.u8();
  const std::uint64_t arg = body.u64();
  if (!body.done()) {
    return make_error(Status::kBadRequest, request_id, "malformed QUERY body");
  }
  GraphState* state = find_graph(handle);
  if (state == nullptr) {
    return make_error(Status::kUnknownGraph, request_id,
                      "no graph with handle " + std::to_string(handle));
  }
  WireWriter resp;
  switch (static_cast<QueryWhat>(what_byte)) {
    case QueryWhat::kVertexColor: {
      if (!state->colored) {
        return make_error(Status::kBadRequest, request_id,
                          "graph not colored yet");
      }
      if (arg >= state->coloring.size()) {
        return make_error(Status::kBadVertex, request_id,
                          "vertex " + std::to_string(arg) + " out of range");
      }
      resp.u32(state->coloring[static_cast<std::size_t>(arg)]);
      break;
    }
    case QueryWhat::kNumColors: {
      if (!state->colored) {
        return make_error(Status::kBadRequest, request_id,
                          "graph not colored yet");
      }
      resp.u32(state->num_colors);
      break;
    }
    case QueryWhat::kGraphStats: {
      const graph::DegreeReport d = graph::analyze_degrees(state->current());
      resp.u64(d.num_vertices);
      resp.u64(d.num_edges);
      resp.u64(d.min_degree);
      resp.u64(d.max_degree);
      break;
    }
    default:
      return make_error(Status::kBadRequest, request_id,
                        "unknown query selector " + std::to_string(what_byte));
  }
  return make_response(Status::kOk, request_id, resp.bytes());
}

// MUTATE body: u32 handle | u32 count | count × (u8 op | u64 u | u64 v)
// response:    u32 applied | u32 skipped | u32 dirty
//              | u8 mode (0 uncolored / 1 incremental / 2 full)
//              | u32 num_colors | u32 iterations | u64 model_ns
std::vector<std::uint8_t> Session::do_mutate(std::uint32_t request_id,
                                             WireReader& body) {
  const std::uint32_t handle = body.u32();
  const std::uint32_t count = body.u32();
  constexpr std::size_t kEntryBytes = 1 + 8 + 8;
  if (!body.ok() || body.remaining() != count * kEntryBytes) {
    return make_error(Status::kBadRequest, request_id,
                      "malformed MUTATE body");
  }
  GraphState* state = find_graph(handle);
  if (state == nullptr) {
    return make_error(Status::kUnknownGraph, request_id,
                      "no graph with handle " + std::to_string(handle));
  }
  const graph::vid_t n = state->current().num_vertices();
  std::vector<graph::EdgeMutation> batch;
  batch.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t kind = body.u8();
    const std::uint64_t u = body.u64();
    const std::uint64_t v = body.u64();
    if (kind > 1) {
      return make_error(Status::kBadRequest, request_id,
                        "mutation kind must be 0 (insert) or 1 (delete)");
    }
    if (u >= n || v >= n) {
      return make_error(Status::kBadVertex, request_id,
                        "mutation endpoint out of range");
    }
    batch.push_back({static_cast<graph::EdgeMutation::Kind>(kind),
                     static_cast<graph::vid_t>(u),
                     static_cast<graph::vid_t>(v)});
  }

  graph::MutationOutcome outcome =
      graph::apply_mutations(state->current(), batch);

  std::uint32_t dirty_size = 0;
  coloring::RecolorResult r;  // all zero while the graph is uncolored
  if (state->colored) {
    const std::vector<graph::vid_t> dirty =
        coloring::dirty_from_inserts(state->coloring, outcome.inserted);
    dirty_size = static_cast<std::uint32_t>(dirty.size());
    coloring::RecolorOptions opts;
    opts.block_size = config_.block_size;
    opts.use_ldg = true;
    opts.device = state->device;
    r = coloring::recolor_region(outcome.graph, state->coloring, dirty, opts);
  }
  support::check_deadline();
  stats_.mutations_applied += outcome.applied;
  std::uint8_t mode = 0;
  if (state->colored) {
    mode = r.full ? 2 : 1;
    ++(r.full ? stats_.full_recolors : stats_.incremental_recolors);
    state->coloring = std::move(r.coloring);
    state->num_colors = r.num_colors;
  }
  state->mutated = std::move(outcome.graph);

  WireWriter resp;
  resp.u32(outcome.applied);
  resp.u32(outcome.skipped);
  resp.u32(dirty_size);
  resp.u8(mode);
  resp.u32(state->num_colors);
  resp.u32(r.iterations);
  resp.u64(to_model_ns(r.model_ms));
  return make_response(Status::kOk, request_id, resp.bytes());
}

// STATS body: empty
// response:   u64 requests | u64 errors | 5 × u64 per-opcode
//             | u64 registry_graphs | u64 registry_generations
//             | u64 incremental_recolors | u64 full_recolors
//             | u64 mutations_applied | u32 handles
std::vector<std::uint8_t> Session::do_stats(std::uint32_t request_id,
                                            WireReader& body) {
  if (!body.done()) {
    return make_error(Status::kBadRequest, request_id, "STATS takes no body");
  }
  WireWriter resp;
  resp.u64(stats_.requests);
  resp.u64(stats_.errors);
  for (std::uint64_t count : stats_.per_opcode) resp.u64(count);
  resp.u64(registry_.size());
  resp.u64(registry_.generations());
  resp.u64(stats_.incremental_recolors);
  resp.u64(stats_.full_recolors);
  resp.u64(stats_.mutations_applied);
  resp.u32(static_cast<std::uint32_t>(graphs_.size()));
  return make_response(Status::kOk, request_id, resp.bytes());
}

}  // namespace speckle::serve
