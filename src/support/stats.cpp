#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace speckle::support {

double Summary::stddev() const { return std::sqrt(variance); }

Summary summarize(std::span<const double> values) {
  Accumulator acc;
  for (double v : values) acc.add(v);
  return acc.summary();
}

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    SPECKLE_CHECK(v > 0.0, "geomean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double percentile(std::span<const double> values, double p) {
  SPECKLE_CHECK(!values.empty(), "percentile of empty sample");
  SPECKLE_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void Accumulator::add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

Summary Accumulator::summary() const {
  Summary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.min = min_;
  s.max = max_;
  s.mean = mean_;
  s.variance = m2_ / static_cast<double>(count_);
  return s;
}

}  // namespace speckle::support
