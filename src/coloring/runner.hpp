#pragma once
/// \file runner.hpp
/// A uniform front-end over every coloring scheme, keyed by the names the
/// paper's evaluation uses. Benches and examples go through this registry
/// so each figure is "for graph in suite, for scheme in list: run".

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coloring/coloring.hpp"
#include "coloring/gpu_common.hpp"
#include "cpumodel/cpu_model.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "multidev/multidev.hpp"

namespace speckle::coloring {

enum class Scheme {
  kSequential,   ///< Algorithm 1 on the CPU model (the baseline)
  kGm3Step,      ///< Grosset's 3-step GM (GPU-sim + CPU resolution)
  kTopoBase,     ///< T-base  (Algorithm 4)
  kTopoLdg,      ///< T-ldg   (Algorithm 4 + __ldg)
  kDataBase,     ///< D-base  (Algorithm 5, scan push)
  kDataLdg,      ///< D-ldg   (Algorithm 5 + __ldg, scan push)
  kCsrColor,     ///< cuSPARSE csrcolor (multi-hash MIS)
  kDataAtomic,   ///< ablation: Algorithm 5 with per-item atomic push
  kDataWarp,     ///< extension: warp-centric D scheme (load balancing)
  kDataLdf,      ///< extension: D-base with largest-degree-first tie-break
  kJpGpu,        ///< classic Jones-Plassmann/Luby on the GPU-sim (1 fixed
                 ///< hash, max-only sets) — the other algorithm family
  kJonesPlassmann,  ///< CPU reference (Algorithm 3)
  kGmOpenMp,     ///< CPU-parallel reference (Algorithm 2, OpenMP)
};

const char* scheme_name(Scheme s);
/// Lookup by scheme_name(); nullopt on an unknown name.
std::optional<Scheme> find_scheme(const std::string& name);
/// Every scheme_name() in all_schemes() order, space-separated (for the
/// accepted-values list of a rejected --scheme).
std::string scheme_names();
bool scheme_uses_gpu(Scheme s);
/// True for the schemes with a multi-device path (RunOptions::num_devices
/// > 1): D-base, D-ldg and D-atomic.
bool scheme_supports_multidev(Scheme s);

/// The seven schemes of the paper's evaluation (Section IV), in its order.
const std::vector<Scheme>& paper_schemes();
/// All schemes including ablations and CPU references.
const std::vector<Scheme>& all_schemes();

struct RunOptions {
  std::uint32_t block_size = 128;
  std::uint64_t seed = 1;
  simt::DeviceConfig device = simt::DeviceConfig::k20c();
  cpumodel::CpuConfig cpu = cpumodel::CpuConfig::xeon_e5_2670();

  /// Multi-device runs (speckle::multidev): shard the graph over this many
  /// simulated GPUs. 1 = the classic single-device path. Values > 1 are
  /// only valid for the data-driven SGR schemes (D-base / D-ldg /
  /// D-atomic); run_scheme aborts loudly otherwise.
  std::uint32_t num_devices = 1;
  graph::PartitionKind partitioner = graph::PartitionKind::kContiguous;

  /// Convenience for reduced-scale experiments: scale both machine models'
  /// cache capacities by `denom` (see DeviceConfig::scaled).
  void scale_caches(std::uint32_t denom) {
    device = device.scaled(denom);
    cpu = cpu.scaled(denom);
  }
};

/// One scheme's result. The GpuResult base carries what every scheme
/// reports: for CPU schemes `report`, `san`, `prof` and `check` stay empty
/// and `model_ms` is the CPU model's time (0 for the host-measured JP-cpu
/// and GM-omp), `wall_ms` the host wall clock. The MultiDevResult fields
/// (devices, cut_edges, exchanged_colors, exchange_rounds, hidden_ms) are
/// filled on multi-device runs (RunOptions::num_devices > 1) only, and the
/// base fields then hold the fleet-level merged views (kernel names carry
/// the "d<k>." device prefix).
struct RunResult : multidev::MultiDevResult {
  Scheme scheme;
};

/// Run one scheme on one graph. Aborts if the scheme produced an improper
/// coloring (every algorithm here must be correct by construction).
RunResult run_scheme(Scheme s, const graph::CsrGraph& g, const RunOptions& opts = {});

}  // namespace speckle::coloring
