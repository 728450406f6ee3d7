#pragma once
/// \file deadline.hpp
/// Cooperative per-thread deadlines. A ScopedDeadline arms a steady_clock
/// point for the calling thread until the scope ends; check_deadline(),
/// called at every simulated kernel launch and before each serve handler
/// commits session state, throws DeadlineExceeded once it has passed.
/// Unarmed, the check is one predictable branch on a thread-local.

#include <chrono>
#include <optional>
#include <stdexcept>

namespace speckle::support {

using DeadlineClock = std::chrono::steady_clock;

struct DeadlineExceeded : std::runtime_error {
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

inline thread_local std::optional<DeadlineClock::time_point> t_deadline;

inline void check_deadline() {
  if (t_deadline && DeadlineClock::now() >= *t_deadline) throw DeadlineExceeded();
}

class ScopedDeadline {
 public:
  explicit ScopedDeadline(DeadlineClock::time_point at) { t_deadline = at; }
  /// `timeout` from now; zero leaves the thread's deadline as it was.
  explicit ScopedDeadline(std::chrono::milliseconds timeout) {
    if (timeout.count() > 0) t_deadline = DeadlineClock::now() + timeout;
  }
  ~ScopedDeadline() { t_deadline = saved_; }
  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  std::optional<DeadlineClock::time_point> saved_ = t_deadline;
};

}  // namespace speckle::support
