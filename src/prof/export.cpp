/// \file export.cpp
/// Report renderings of the profiler: the `--profile` text report, the
/// machine-readable JSON record, and the Chrome-trace
/// ("traceEvents") timeline for Perfetto / chrome://tracing.
///
/// Every rendering is a pure function of the Report, which is itself
/// bit-identical at every host thread count — so all three outputs are
/// byte-identical too, and the text report can be golden-diffed in CI.

#include <iomanip>
#include <sstream>

#include "prof/prof.hpp"

namespace speckle::prof {
namespace {

using simt::Stall;

constexpr std::size_t kStallCount = static_cast<std::size_t>(Stall::kCount);

/// Short column labels for the stall breakdown (the long names live in
/// simt::stall_name; the text report is column-oriented).
const char* stall_label(Stall s) {
  switch (s) {
    case Stall::kMemoryDependency: return "mem";
    case Stall::kExecutionDependency: return "exec";
    case Stall::kSynchronization: return "sync";
    case Stall::kMemoryThrottle: return "throttle";
    case Stall::kAtomic: return "atomic";
    case Stall::kIdle: return "idle";
    case Stall::kCount: break;
  }
  return "?";
}

std::string pct(double fraction) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << fraction * 100.0 << "%";
  return out.str();
}

std::string ratio(double value) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << value;
  return out.str();
}

void format_counters(std::ostream& out, const LaunchProfile& lp,
                     const std::string& indent) {
  out << indent << "insts: exec=" << lp.warp_insts << " issued=" << lp.issued_insts
      << " divergent=" << lp.divergent_insts
      << " simd_eff=" << pct(lp.simd_efficiency()) << "\n";
  out << indent << "loads: gld req=" << lp.ld_requests
      << " txn=" << lp.ld_transactions << ", ldg req=" << lp.ldg_requests
      << " txn=" << lp.ldg_transactions
      << " (txn/req=" << ratio(lp.load_transactions_per_request())
      << "), st req=" << lp.st_requests << " txn=" << lp.st_transactions << "\n";
  out << indent << "ro$: hit=" << lp.ro_hits << " miss=" << lp.ro_misses
      << " rate=" << pct(lp.ro_hit_rate()) << " | l2: hit=" << lp.l2_hits
      << " miss=" << lp.l2_misses << " rate=" << pct(lp.l2_hit_rate())
      << " | dram: txn=" << lp.dram_transactions()
      << " bytes=" << lp.dram_bytes << "\n";
  out << indent << "atomics=" << lp.atomic_ops << " barriers=" << lp.barriers
      << " blocks=" << lp.blocks << " (replayed " << lp.blocks_replayed
      << ") warps=" << lp.warps_launched << "\n";
  out << indent << "commit: pages=" << lp.commit.pages_touched << " (merged "
      << lp.commit.pages_merged << ") swap_bytes=" << lp.commit.bytes_swapped
      << " merge_bytes=" << lp.commit.bytes_replayed
      << " | overlay writes=" << lp.overlay_writes
      << " bytes=" << lp.overlay_bytes << "\n";
  out << indent << "stalls:";
  for (std::size_t s = 0; s < kStallCount; ++s) {
    const double frac = lp.stalls.total > 0
                            ? lp.stalls.cycles[s] / lp.stalls.total
                            : 0.0;
    out << " " << stall_label(static_cast<Stall>(s)) << "=" << pct(frac);
  }
  const double busy =
      lp.stalls.total > 0 ? lp.stalls.busy / lp.stalls.total : 0.0;
  out << " busy=" << pct(busy) << "\n";
  out << indent << "issue util hist (10% bins):";
  for (std::uint64_t bin : lp.issue_hist) out << " " << bin;
  out << "\n";
  if (!lp.buffers.empty()) {
    out << indent << "buffers:\n";
    for (const BufferCounters& bc : lp.buffers) {
      out << indent << "  " << bc.name << ": req=" << bc.requests
          << " gld_txn=" << bc.ld_transactions
          << " ldg_txn=" << bc.ldg_transactions
          << " st_txn=" << bc.st_transactions << " atomics=" << bc.atomics
          << "\n";
    }
  }
}

void json_escape(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// Doubles in JSON: shortest round-trip is locale-dependent to implement by
/// hand; 17 significant digits round-trips exactly and is deterministic.
void json_double(std::ostream& out, double v) {
  std::ostringstream tmp;
  tmp << std::setprecision(17) << v;
  out << tmp.str();
}

void json_counters(std::ostream& out, const LaunchProfile& lp,
                   const std::string& indent) {
  out << indent << "\"blocks\": " << lp.blocks << ",\n";
  out << indent << "\"blocks_replayed\": " << lp.blocks_replayed << ",\n";
  out << indent << "\"warps_launched\": " << lp.warps_launched << ",\n";
  out << indent << "\"threads_launched\": " << lp.threads_launched << ",\n";
  out << indent << "\"warp_insts\": " << lp.warp_insts << ",\n";
  out << indent << "\"issued_insts\": " << lp.issued_insts << ",\n";
  out << indent << "\"divergent_insts\": " << lp.divergent_insts << ",\n";
  out << indent << "\"active_lane_issues\": " << lp.active_lane_issues << ",\n";
  out << indent << "\"possible_lane_issues\": " << lp.possible_lane_issues
      << ",\n";
  out << indent << "\"ld_requests\": " << lp.ld_requests << ",\n";
  out << indent << "\"ld_transactions\": " << lp.ld_transactions << ",\n";
  out << indent << "\"ldg_requests\": " << lp.ldg_requests << ",\n";
  out << indent << "\"ldg_transactions\": " << lp.ldg_transactions << ",\n";
  out << indent << "\"st_requests\": " << lp.st_requests << ",\n";
  out << indent << "\"st_transactions\": " << lp.st_transactions << ",\n";
  out << indent << "\"atomic_ops\": " << lp.atomic_ops << ",\n";
  out << indent << "\"barriers\": " << lp.barriers << ",\n";
  out << indent << "\"ro_hits\": " << lp.ro_hits << ",\n";
  out << indent << "\"ro_misses\": " << lp.ro_misses << ",\n";
  out << indent << "\"l2_hits\": " << lp.l2_hits << ",\n";
  out << indent << "\"l2_misses\": " << lp.l2_misses << ",\n";
  out << indent << "\"dram_transactions\": " << lp.dram_transactions() << ",\n";
  out << indent << "\"dram_bytes\": " << lp.dram_bytes << ",\n";
  out << indent << "\"commit\": {\"waves\": " << lp.commit.waves
      << ", \"pages_touched\": " << lp.commit.pages_touched
      << ", \"pages_merged\": " << lp.commit.pages_merged
      << ", \"bytes_swapped\": " << lp.commit.bytes_swapped
      << ", \"bytes_replayed\": " << lp.commit.bytes_replayed
      << ", \"overlay_writes\": " << lp.overlay_writes
      << ", \"overlay_bytes\": " << lp.overlay_bytes << "},\n";
  out << indent << "\"stalls\": {";
  for (std::size_t s = 0; s < kStallCount; ++s) {
    if (s > 0) out << ", ";
    out << "\"" << stall_label(static_cast<Stall>(s)) << "\": ";
    json_double(out, lp.stalls.cycles[s]);
  }
  out << ", \"busy\": ";
  json_double(out, lp.stalls.busy);
  out << ", \"total\": ";
  json_double(out, lp.stalls.total);
  out << "},\n";
  out << indent << "\"issue_hist\": [";
  for (std::size_t i = 0; i < LaunchProfile::kIssueBins; ++i) {
    if (i > 0) out << ", ";
    out << lp.issue_hist[i];
  }
  out << "],\n";
  out << indent << "\"buffers\": [";
  for (std::size_t i = 0; i < lp.buffers.size(); ++i) {
    const BufferCounters& bc = lp.buffers[i];
    if (i > 0) out << ",";
    out << "\n" << indent << "  {\"name\": ";
    json_escape(out, bc.name);
    out << ", \"requests\": " << bc.requests
        << ", \"ld_transactions\": " << bc.ld_transactions
        << ", \"ldg_transactions\": " << bc.ldg_transactions
        << ", \"st_transactions\": " << bc.st_transactions
        << ", \"atomics\": " << bc.atomics << "}";
  }
  if (!lp.buffers.empty()) out << "\n" << indent;
  out << "]";
}

}  // namespace

std::string Report::format(const simt::DeviceConfig& dev) const {
  std::ostringstream out;
  const std::vector<KernelAggregate> kernels = by_kernel();
  out << "profile: " << launches.size() << " launch(es), " << kernels.size()
      << " kernel(s), " << transfers.size() << " transfer(s)\n";
  for (const KernelAggregate& k : kernels) {
    const LaunchProfile& s = k.sum;
    out << "kernel " << k.kernel << ": launches=" << k.launches
        << " grid=" << s.grid_blocks << " block=" << s.block_threads
        << " occ=" << s.occupancy_blocks_per_sm << "/SM waves=" << s.waves
        << " cycles=" << s.cycles << "\n";
    format_counters(out, s, "  ");
    if (s.blocks > 0 && s.atomic_ops > 0) {
      out << "  atomics/block=" << ratio(static_cast<double>(s.atomic_ops) /
                                         static_cast<double>(s.blocks))
          << "\n";
    }
  }
  if (launches.size() > 1) {
    out << "launches:\n";
    for (const LaunchProfile& lp : launches) {
      out << "  " << lp.kernel << "#" << lp.round << " grid=" << lp.grid_blocks
          << " cycles=" << lp.cycles << " insts=" << lp.warp_insts
          << " gld_txn=" << lp.ld_transactions
          << " ldg_txn=" << lp.ldg_transactions << " dram_txn="
          << lp.dram_transactions() << " atomics=" << lp.atomic_ops << "\n";
    }
  }
  if (!transfers.empty()) {
    std::uint64_t h2d_bytes = 0, h2d_cycles = 0, d2h_bytes = 0, d2h_cycles = 0;
    std::uint64_t d2d_bytes = 0, d2d_cycles = 0, d2d_count = 0;
    for (const Transfer& t : transfers) {
      if (t.d2d) {
        d2d_bytes += t.bytes;
        d2d_cycles += t.cycles;
        ++d2d_count;
        continue;
      }
      (t.h2d ? h2d_bytes : d2h_bytes) += t.bytes;
      (t.h2d ? h2d_cycles : d2h_cycles) += t.cycles;
    }
    out << "transfers: h2d bytes=" << h2d_bytes << " cycles=" << h2d_cycles
        << ", d2h bytes=" << d2h_bytes << " cycles=" << d2h_cycles;
    // Peer exchanges only exist on multi-device runs; single-device reports
    // keep their historical (golden-diffed) shape.
    if (d2d_count > 0) {
      out << ", d2d bytes=" << d2d_bytes << " cycles=" << d2d_cycles;
    }
    out << "\n";
  }
  // Multi-device fleet reports carry the per-round coalesced exchange
  // batches; single-device reports keep their historical (golden-diffed)
  // shape.
  if (!exchange_rounds.empty()) {
    out << "exchange rounds:\n";
    for (const ExchangeRound& er : exchange_rounds) {
      out << "  round " << er.round << ": batches=" << er.batches
          << " bytes=" << er.bytes << " cycles=" << er.cycles
          << " hidden=" << er.hidden_cycles << " stall=" << er.stall_cycles
          << "\n";
    }
  }
  (void)dev;
  return out.str();
}

std::string Report::to_json(const simt::DeviceConfig& dev,
                            const std::string& benchmark,
                            const std::string& machine) const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"speckle-prof-1\",\n";
  out << "  \"benchmark\": ";
  json_escape(out, benchmark);
  out << ",\n  \"machine\": ";
  json_escape(out, machine);
  out << ",\n";
  out << "  \"device\": {\"num_sms\": " << dev.num_sms
      << ", \"warp_size\": " << dev.warp_size << ", \"core_clock_ghz\": ";
  json_double(out, dev.core_clock_ghz);
  out << ", \"line_bytes\": " << dev.line_bytes
      << ", \"dram_sector_bytes\": " << dev.dram_sector_bytes << "},\n";

  out << "  \"launches\": [";
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const LaunchProfile& lp = launches[i];
    if (i > 0) out << ",";
    out << "\n    {\n      \"kernel\": ";
    json_escape(out, lp.kernel);
    out << ",\n      \"round\": " << lp.round
        << ",\n      \"grid_blocks\": " << lp.grid_blocks
        << ",\n      \"block_threads\": " << lp.block_threads
        << ",\n      \"occupancy_blocks_per_sm\": " << lp.occupancy_blocks_per_sm
        << ",\n      \"waves\": " << lp.waves
        << ",\n      \"start_cycle\": " << lp.start_cycle
        << ",\n      \"cycles\": " << lp.cycles << ",\n";
    json_counters(out, lp, "      ");
    out << "\n    }";
  }
  if (!launches.empty()) out << "\n  ";
  out << "],\n";

  const std::vector<KernelAggregate> kernels = by_kernel();
  out << "  \"kernels\": [";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelAggregate& k = kernels[i];
    if (i > 0) out << ",";
    out << "\n    {\n      \"kernel\": ";
    json_escape(out, k.kernel);
    out << ",\n      \"launches\": " << k.launches
        << ",\n      \"waves\": " << k.sum.waves
        << ",\n      \"cycles\": " << k.sum.cycles << ",\n";
    json_counters(out, k.sum, "      ");
    out << "\n    }";
  }
  if (!kernels.empty()) out << "\n  ";
  out << "],\n";

  out << "  \"transfers\": [";
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& t = transfers[i];
    if (i > 0) out << ",";
    out << "\n    {\"dir\": \"" << t.dir_name()
        << "\", \"bytes\": " << t.bytes << ", \"cycles\": " << t.cycles
        << ", \"start_cycle\": " << t.start_cycle << "}";
  }
  if (!transfers.empty()) out << "\n  ";
  out << "],\n";

  // Per-round coalesced exchange batches (multi-device fleet profiles
  // only; the array is empty on single-device runs).
  out << "  \"exchange_rounds\": [";
  for (std::size_t i = 0; i < exchange_rounds.size(); ++i) {
    const ExchangeRound& er = exchange_rounds[i];
    if (i > 0) out << ",";
    out << "\n    {\"round\": " << er.round << ", \"batches\": " << er.batches
        << ", \"bytes\": " << er.bytes << ", \"cycles\": " << er.cycles
        << ", \"hidden_cycles\": " << er.hidden_cycles
        << ", \"stall_cycles\": " << er.stall_cycles << "}";
  }
  if (!exchange_rounds.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

std::string Report::to_chrome_trace(const simt::DeviceConfig& dev) const {
  // Timestamps/durations in microseconds of the modeled device timeline.
  const double cycles_per_us = dev.core_clock_ghz * 1e3;
  const auto us = [&](double cycles) { return cycles / cycles_per_us; };
  const double overhead =
      static_cast<double>(dev.us_to_cycles(dev.kernel_launch_us));

  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // Track metadata: pid 0 = the device-level view (kernel + PCIe rows),
  // pid 1 = one row per SM with a slice per wave.
  out << "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"device\"}},\n";
  out << "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"thread_name\", "
         "\"args\": {\"name\": \"kernels\"}},\n";
  out << "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 1, \"name\": \"thread_name\", "
         "\"args\": {\"name\": \"pcie\"}},\n";
  out << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"SMs\"}},\n";
  for (std::uint32_t sm = 0; sm < dev.num_sms; ++sm) {
    out << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << sm
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"sm" << sm
        << "\"}},\n";
  }

  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };

  for (const LaunchProfile& lp : launches) {
    sep() << "  {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": ";
    json_double(out, us(static_cast<double>(lp.start_cycle)));
    out << ", \"dur\": ";
    json_double(out, us(static_cast<double>(lp.cycles)));
    out << ", \"name\": ";
    json_escape(out, lp.kernel + "#" + std::to_string(lp.round));
    out << ", \"args\": {\"grid_blocks\": " << lp.grid_blocks
        << ", \"warp_insts\": " << lp.warp_insts
        << ", \"dram_transactions\": " << lp.dram_transactions()
        << ", \"atomics\": " << lp.atomic_ops << "}}";

    // Per-wave SM slices: the launch overhead precedes execution, so wave
    // cycle 0 sits at start_cycle + overhead on the device timeline.
    for (std::size_t w = 0; w < lp.timeline.size(); ++w) {
      const WaveSlice& slice = lp.timeline[w];
      for (std::size_t sm = 0; sm < slice.sms.size(); ++sm) {
        const simt::WaveProfile::Sm& s = slice.sms[sm];
        if (s.finish <= slice.start) continue;  // SM had no resident work
        sep() << "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << sm << ", \"ts\": ";
        json_double(
            out, us(static_cast<double>(lp.start_cycle) + overhead + slice.start));
        out << ", \"dur\": ";
        json_double(out, us(s.finish - slice.start));
        out << ", \"name\": ";
        json_escape(out,
                    lp.kernel + "#" + std::to_string(lp.round) + " wave " +
                        std::to_string(w));
        out << ", \"args\": {\"busy_cycles\": ";
        json_double(out, s.busy);
        out << ", \"warp_insts\": " << s.warp_insts
            << ", \"dram_transactions\": " << s.dram_transactions << "}}";
      }
    }
  }

  for (const Transfer& t : transfers) {
    sep() << "  {\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"ts\": ";
    json_double(out, us(static_cast<double>(t.start_cycle)));
    out << ", \"dur\": ";
    json_double(out, us(static_cast<double>(t.cycles)));
    out << ", \"name\": \"" << t.dir_name()
        << "\", \"args\": {\"bytes\": " << t.bytes << "}}";
  }

  out << "\n]}\n";
  return out.str();
}

}  // namespace speckle::prof
