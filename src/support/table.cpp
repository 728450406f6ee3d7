#include "support/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <ostream>

#include "support/check.hpp"

namespace speckle::support {
namespace {

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  SPECKLE_CHECK(!headers_.empty(), "table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(std::string value) {
  SPECKLE_CHECK(!rows_.empty(), "call row() before cell()");
  SPECKLE_CHECK(rows_.back().size() < headers_.size(), "too many cells in row");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell_u64(std::uint64_t value) { return cell(std::to_string(value)); }
Table& Table::cell_i64(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell_f(double value, int digits) { return cell(fixed(value, digits)); }
Table& Table::cell_ratio(double value, int digits) {
  return cell(fixed(value, digits) + "x");
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string();
      os << "  " << text << std::string(widths[c] - text.size(), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit_row(r);
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) os << ',';
      os << cells[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
}

void Table::print() const { print(std::cout); }

std::string format_si(double value, int digits) {
  const char* suffix = "";
  double scaled = value;
  if (value >= 1e9) {
    scaled = value / 1e9;
    suffix = "G";
  } else if (value >= 1e6) {
    scaled = value / 1e6;
    suffix = "M";
  } else if (value >= 1e3) {
    scaled = value / 1e3;
    suffix = "K";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%s", digits, scaled, suffix);
  return buf;
}

}  // namespace speckle::support
