#pragma once
/// \file timer.hpp
/// Wall-clock timing helpers for the CPU-side measurements.
///
/// Simulated-GPU results come from the timing model, not from these timers;
/// wall-clock numbers are reported alongside for the real CPU algorithms
/// (sequential greedy, GM-OpenMP, Jones–Plassmann).

#include <chrono>
#include <cstdint>

namespace speckle::support {

/// Monotonic stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }
  std::uint64_t microseconds() const {
    return static_cast<std::uint64_t>(seconds() * 1e6);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace speckle::support
