#pragma once
/// \file session.hpp
/// One client connection's state and request dispatcher.
///
/// A Session owns the graphs a client has LOADed (by handle), the latest
/// coloring per handle, and the per-session counters STATS reports. The
/// server processes one request at a time per session (FIFO), so Session
/// itself needs no locking — only the shared GraphRegistry synchronizes
/// across sessions.
///
/// Request lifecycle for a mutation:
///   MUTATE → graph::apply_mutations (copy-on-write off the shared base)
///          → coloring::dirty_from_inserts (which endpoints a new conflict
///            invalidates — deletions never invalidate)
///          → coloring::recolor_region (incremental when the dirty region
///            is under kFullRecolorFraction of V, from-scratch otherwise)
/// Every response carries only simulated/model quantities — never wall
/// clock — so a trace replay is bit-identical at any --threads count.
///
/// handle() runs under the caller's support::ScopedDeadline: every launch
/// and each handler's pre-commit point check it, so a `timeout` reply
/// (counted in STATS errors) left the session untouched.
///
/// Every input that would trip a SPECKLE_CHECK abort deeper in the library
/// (unknown scheme or suite name, invalid suite denom, seed 0, vertex
/// out of range) is pre-validated here and turned into a typed error
/// response: a client can never abort the server.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coloring/coloring.hpp"
#include "coloring/runner.hpp"
#include "graph/csr_graph.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "simt/config.hpp"

namespace speckle::serve {

/// Knobs a Session inherits from the server's command line.
struct SessionConfig {
  std::uint32_t block_size = 128;
  std::uint32_t host_threads = 1;  ///< simulator host threads per request
  std::string graph_cache;         ///< on-disk CSR cache dir ("" = off)
};

/// Counters STATS reports; all per-session except the registry views.
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t per_opcode[kNumOpcodes] = {};
  std::uint64_t incremental_recolors = 0;
  std::uint64_t full_recolors = 0;
  std::uint64_t mutations_applied = 0;
};

class Session {
 public:
  Session(GraphRegistry& registry, SessionConfig config)
      : registry_(registry), config_(std::move(config)) {}

  /// Decode one request payload, execute it, return the response payload
  /// (no frame prefix). Total: never throws (a passed deadline is a
  /// kTimeout response), never aborts.
  std::vector<std::uint8_t> handle(std::span<const std::uint8_t> payload);

  const ServeStats& stats() const { return stats_; }

 private:
  /// Per-handle state. `base` is the immutable registry graph; the first
  /// MUTATE copies it into `mutated` and later batches rebuild from there.
  struct GraphState {
    std::shared_ptr<const graph::CsrGraph> base;
    std::optional<graph::CsrGraph> mutated;
    std::uint32_t denom = 1;
    simt::DeviceConfig device;

    bool colored = false;
    coloring::Scheme scheme = coloring::Scheme::kDataLdg;
    coloring::Coloring coloring;
    coloring::color_t num_colors = 0;
    std::uint64_t color_model_ns = 0;  ///< replayed on a COLOR cache hit
    std::uint32_t color_iterations = 0;

    const graph::CsrGraph& current() const {
      return mutated ? *mutated : *base;
    }
  };

  std::vector<std::uint8_t> dispatch(Opcode op, std::uint32_t request_id,
                                     WireReader& body);
  std::vector<std::uint8_t> do_load(std::uint32_t request_id, WireReader& body);
  std::vector<std::uint8_t> do_color(std::uint32_t request_id, WireReader& body);
  std::vector<std::uint8_t> do_query(std::uint32_t request_id, WireReader& body);
  std::vector<std::uint8_t> do_mutate(std::uint32_t request_id, WireReader& body);
  std::vector<std::uint8_t> do_stats(std::uint32_t request_id, WireReader& body);

  GraphState* find_graph(std::uint32_t handle);

  GraphRegistry& registry_;
  SessionConfig config_;
  std::map<std::uint32_t, GraphState> graphs_;
  std::uint32_t next_handle_ = 1;
  ServeStats stats_;
};

}  // namespace speckle::serve
