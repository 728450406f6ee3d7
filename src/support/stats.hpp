#pragma once
/// \file stats.hpp
/// Summary statistics used by degree reports (Table I) and bench output.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace speckle::support {

/// One-pass summary of a sample: count, min, max, mean, population variance.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double variance = 0.0;  ///< population variance (divides by n), as Table I does

  double stddev() const;
};

/// Summarise a span of values. Empty input yields a zeroed Summary.
Summary summarize(std::span<const double> values);

/// Geometric mean; all values must be positive. Used for "average speedup"
/// rows, matching common practice for normalized ratios.
double geomean(std::span<const double> values);

/// Arithmetic mean (0 for empty input).
double mean(std::span<const double> values);

/// p-th percentile (0..100) by linear interpolation on a sorted copy.
double percentile(std::span<const double> values, double p);

/// Streaming accumulator (Welford) for when values are produced one by one.
class Accumulator {
 public:
  void add(double value);
  Summary summary() const;

 private:
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace speckle::support
