#include "simt/stats.hpp"

namespace speckle::simt {

const char* stall_name(Stall s) {
  switch (s) {
    case Stall::kMemoryDependency: return "memory dependency";
    case Stall::kExecutionDependency: return "execution dependency";
    case Stall::kSynchronization: return "synchronization";
    case Stall::kMemoryThrottle: return "memory throttle";
    case Stall::kAtomic: return "atomic";
    case Stall::kIdle: return "idle/not selected";
    case Stall::kCount: break;
  }
  return "?";
}

double StallBreakdown::fraction(Stall reason) const {
  return total > 0 ? get(reason) / total : 0.0;
}

StallBreakdown& StallBreakdown::operator+=(const StallBreakdown& other) {
  for (std::size_t i = 0; i < cycles.size(); ++i) cycles[i] += other.cycles[i];
  busy += other.busy;
  total += other.total;
  return *this;
}

double KernelStats::bandwidth_utilization(const DeviceConfig& dev) const {
  if (cycles == 0) return 0.0;
  const double peak_bytes = dev.dram_bytes_per_cycle() * static_cast<double>(cycles);
  return static_cast<double>(dram_bytes) / peak_bytes;
}

StallBreakdown DeviceReport::aggregate_stalls() const {
  StallBreakdown agg;
  for (const KernelStats& k : kernels) agg += k.stalls;
  return agg;
}

}  // namespace speckle::simt
