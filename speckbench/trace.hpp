#pragma once
/// \file trace.hpp
/// Host-time spans for the benchmark's traced run.
///
/// A span brackets one call into a speckle layer's public function (or one
/// socket round trip). Spans nest: the span open when another starts is its
/// parent, and a span's self time is its duration minus the time its
/// children cover. Spans are kept in memory and summarized (and optionally
/// written out as a Chrome trace) when the run ends.
///
/// When the tracer is off, Tracer::span() records nothing: the untraced run
/// pays one branch per call site.

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace speckbench {

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Open a span named `name` (a string literal: only the pointer is kept)
  /// that lasts until the returned Scope is destroyed. `request` groups the
  /// spans of one request or one unit of work (0 = none).
  Scope span(const char* name, std::uint64_t request = 0) {
    if (!on_) return Scope(nullptr, 0);
    return Scope(this, open(name, request));
  }

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  struct Row {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per-name totals of the closed spans that started in [since, until)
  /// (steady_clock readings in ns), in first-seen order.
  std::vector<Row> summarize(std::int64_t since,
                             std::int64_t until =
                                 std::numeric_limits<std::int64_t>::max()) const;

  /// Write every span as a Chrome trace ("X" events, µs) to `path`.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::int64_t parent;  ///< index into spans_, -1 for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;
  };

  std::size_t open(const char* name, std::uint64_t request);
  void close(std::size_t index);

  bool on_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;  ///< innermost open span, -1 when none
};

}  // namespace speckbench
