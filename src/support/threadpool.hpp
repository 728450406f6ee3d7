#pragma once
/// \file threadpool.hpp
/// A small reusable worker pool with a deterministic parallel-for.
///
/// `parallel_for_deterministic(count, fn)` runs `fn(index, slot)` exactly
/// once for every index in [0, count). Indices are handed out dynamically
/// (chunked work stealing from a shared counter), so the *schedule* is
/// nondeterministic — determinism is the caller's contract: each index must
/// write only to its own output slot (and read only state that is frozen
/// for the duration of the call). `slot` identifies the executing lane in
/// [0, concurrency()): slot 0 is always the calling thread, which
/// participates in the loop; slots 1.. are pool workers. Callers use the
/// slot to index per-lane scratch arenas that are reused across calls.
///
/// The call blocks until every index has run. If any invocation throws, the
/// first exception (in completion order) is rethrown on the calling thread
/// after the loop drains; remaining indices may be skipped.
///
/// A pool constructed with `threads <= 1` spawns no workers and runs every
/// loop inline on the caller — the zero-overhead serial mode.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace speckle::support {

/// The largest host thread count a CLI accepts for --threads / --pool
/// (far past any host here; it keeps a typo from spawning billions).
inline constexpr std::uint32_t kMaxThreads = 1024;

class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread:
  /// `threads - 1` workers are spawned. 0 and 1 both mean "no workers".
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lanes that can run concurrently (workers + the caller). >= 1.
  unsigned concurrency() const { return static_cast<unsigned>(workers_.size()) + 1; }

  using IndexFn = std::function<void(std::size_t index, unsigned slot)>;

  /// Run fn(i, slot) for every i in [0, count). See file comment.
  void parallel_for_deterministic(std::size_t count, const IndexFn& fn);

 private:
  void worker_main(unsigned slot);
  void run_indices(const IndexFn& fn, unsigned slot);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;      ///< bumped once per parallel_for
  unsigned active_workers_ = 0;  ///< workers still inside the current loop
  bool stopping_ = false;

  // Current job (valid while active_workers_ > 0 or the caller is looping).
  const IndexFn* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;  ///< guarded by mutex_
  std::exception_ptr error_;
};

}  // namespace speckle::support
