#pragma once
/// \file registry.hpp
/// Server-global graph registry: one immutable CSR per key, generated at
/// most once no matter how many sessions LOAD it concurrently.
///
/// Concurrency contract (the satellite test in serve_session_test.cpp):
/// the first loader of a key installs a shared_future under the lock and
/// generates *outside* it; every concurrent loader of the same key blocks
/// on that future and receives the same shared_ptr — a single generation,
/// and no session can observe a torn/partial graph because the future only
/// becomes ready with a fully constructed CsrGraph. A generator that
/// throws propagates the exception to every waiter and evicts the entry,
/// so a later LOAD can retry.
///
/// Sessions never mutate registry graphs: MUTATE copies-on-write into
/// session-local state (session.hpp), so the dedup is safe across
/// sessions that diverge under mutation.

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/csr_graph.hpp"

namespace speckle::serve {

class GraphRegistry {
 public:
  using GraphPtr = std::shared_ptr<const graph::CsrGraph>;
  using Generator = std::function<GraphPtr()>;

  struct LoadResult {
    GraphPtr graph;
    bool fresh = false;  ///< this call ran the generator (not a dedup hit)
  };

  /// Load-or-wait. `gen` runs at most once per key across all threads.
  /// Rethrows the generator's exception (to every concurrent waiter).
  LoadResult load(const std::string& key, const Generator& gen);

  /// Distinct keys currently resident.
  std::size_t size() const;
  /// Total generator invocations since construction (== size() unless a
  /// generation failed and was retried, or distinct keys were evicted).
  std::uint64_t generations() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_future<GraphPtr>> entries_;
  std::uint64_t generations_ = 0;
};

}  // namespace speckle::serve
