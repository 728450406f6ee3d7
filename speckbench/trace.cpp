#include "trace.hpp"

#include <fstream>
#include <map>

namespace speckbench {

std::size_t Tracer::open(const char* name, std::uint64_t request) {
  spans_.push_back({name, request, open_, now_ns(), 0, 0});
  open_ = static_cast<std::int64_t>(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  Span& s = spans_[index];
  s.end_ns = now_ns();
  if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
  open_ = s.parent;
}

std::vector<Tracer::Row> Tracer::summarize(std::int64_t since,
                                           std::int64_t until) const {
  std::vector<Row> rows;
  std::map<std::string, std::size_t> index;
  for (const Span& s : spans_) {
    if (s.start_ns < since || s.start_ns >= until || s.end_ns == 0) continue;
    auto [it, fresh] = index.emplace(s.name, rows.size());
    if (fresh) rows.push_back({s.name, 0, 0.0, 0.0});
    Row& row = rows[it->second];
    ++row.count;
    row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    row.self_ms +=
        static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e6;
  }
  return rows;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end_ns == 0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace speckbench
