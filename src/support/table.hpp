#pragma once
/// \file table.hpp
/// Column-aligned ASCII table printing for bench output, mirroring the
/// rows/series of the paper's tables and figures. Also emits CSV so the
/// series can be re-plotted.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace speckle::support {

/// A simple row/column table. Cells are strings; numeric helpers format
/// with sensible precision. Print as aligned text or CSV.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; subsequent add_* calls fill it left to right.
  Table& row();

  Table& cell(std::string value);
  Table& cell(const char* value);
  Table& cell_u64(std::uint64_t value);
  Table& cell_i64(std::int64_t value);
  /// Fixed-point with `digits` decimals.
  Table& cell_f(double value, int digits = 2);
  /// "3.04x"-style ratio cell.
  Table& cell_ratio(double value, int digits = 2);

  std::size_t row_count() const { return rows_.size(); }

  /// Render with padded columns and a header underline.
  void print(std::ostream& os) const;
  /// Render as CSV (no quoting of commas; headers/cells must avoid them).
  void print_csv(std::ostream& os) const;

  /// Convenience: print(std::cout).
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers shared by benches.
std::string format_si(double value, int digits = 2);     ///< 1.23M, 45.6K …

}  // namespace speckle::support
