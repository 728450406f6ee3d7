#include "coloring/runner.hpp"

#include "coloring/csrcolor.hpp"
#include "coloring/data.hpp"
#include "coloring/gm3step.hpp"
#include "coloring/gm_omp.hpp"
#include "coloring/jp.hpp"
#include "coloring/seq_greedy.hpp"
#include "coloring/topo.hpp"
#include "coloring/warp.hpp"
#include "support/check.hpp"

namespace speckle::coloring {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kSequential: return "sequential";
    case Scheme::kGm3Step: return "3-step-GM";
    case Scheme::kTopoBase: return "T-base";
    case Scheme::kTopoLdg: return "T-ldg";
    case Scheme::kDataBase: return "D-base";
    case Scheme::kDataLdg: return "D-ldg";
    case Scheme::kCsrColor: return "csrcolor";
    case Scheme::kDataAtomic: return "D-atomic";
    case Scheme::kDataWarp: return "D-warp";
    case Scheme::kDataLdf: return "D-ldf";
    case Scheme::kJpGpu: return "JP-gpu";
    case Scheme::kJonesPlassmann: return "JP-cpu";
    case Scheme::kGmOpenMp: return "GM-omp";
  }
  return "?";
}

std::optional<Scheme> find_scheme(const std::string& name) {
  for (Scheme s : all_schemes()) {
    if (name == scheme_name(s)) return s;
  }
  return std::nullopt;
}

std::string scheme_names() {
  std::string out;
  for (Scheme s : all_schemes()) {
    if (!out.empty()) out += ' ';
    out += scheme_name(s);
  }
  return out;
}

bool scheme_uses_gpu(Scheme s) {
  switch (s) {
    case Scheme::kSequential:
    case Scheme::kJonesPlassmann:
    case Scheme::kGmOpenMp:
      return false;
    default:
      return true;
  }
}

bool scheme_supports_multidev(Scheme s) {
  return s == Scheme::kDataBase || s == Scheme::kDataLdg || s == Scheme::kDataAtomic;
}

const std::vector<Scheme>& paper_schemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kSequential, Scheme::kGm3Step,  Scheme::kTopoBase, Scheme::kTopoLdg,
      Scheme::kDataBase,   Scheme::kDataLdg, Scheme::kCsrColor,
  };
  return schemes;
}

const std::vector<Scheme>& all_schemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kSequential, Scheme::kGm3Step,     Scheme::kTopoBase,
      Scheme::kTopoLdg,    Scheme::kDataBase,    Scheme::kDataLdg,
      Scheme::kCsrColor,   Scheme::kDataAtomic,  Scheme::kDataWarp,
      Scheme::kDataLdf,    Scheme::kJpGpu,       Scheme::kJonesPlassmann,
      Scheme::kGmOpenMp,
  };
  return schemes;
}

namespace {

GpuOptions make_gpu_options(const RunOptions& opts, bool use_ldg) {
  GpuOptions gpu;
  gpu.block_size = opts.block_size;
  gpu.use_ldg = use_ldg;
  gpu.device = opts.device;
  return gpu;
}

}  // namespace

RunResult run_scheme(Scheme s, const graph::CsrGraph& g, const RunOptions& opts) {
  RunResult result;
  result.scheme = s;
  if (opts.num_devices > 1) {
    SPECKLE_CHECK(scheme_supports_multidev(s),
                  std::string(scheme_name(s)) +
                      " has no multi-device path; --devices>1 supports "
                      "D-base, D-ldg and D-atomic");
    multidev::MultiDevOptions mo;
    mo.num_devices = opts.num_devices;
    mo.partitioner = opts.partitioner;
    mo.block_size = opts.block_size;
    mo.use_ldg = s == Scheme::kDataLdg;
    mo.scan_push = s != Scheme::kDataAtomic;
    mo.seed = opts.seed;
    mo.device = opts.device;
    static_cast<multidev::MultiDevResult&>(result) = multidev::multidev_color(g, mo);
    const VerifyResult verify = verify_coloring(g, result.coloring);
    SPECKLE_CHECK(verify.proper, std::string(scheme_name(s)) +
                                     " (multi-device) produced an improper "
                                     "coloring: " +
                                     verify.to_string());
    return result;
  }
  switch (s) {
    case Scheme::kSequential: {
      SeqOptions seq;
      seq.seed = opts.seed;
      seq.cpu = opts.cpu;
      const SeqResult r = seq_greedy(g, seq);
      result.coloring = std::move(r.coloring);
      result.model_ms = r.model_ms;
      result.wall_ms = r.wall_ms;
      result.iterations = 1;
      break;
    }
    case Scheme::kGm3Step: {
      Gm3Options o;
      static_cast<GpuOptions&>(o) = make_gpu_options(opts, false);
      o.cpu = opts.cpu;
      static_cast<GpuResult&>(result) = gm3step_color(g, o);
      break;
    }
    case Scheme::kTopoBase:
    case Scheme::kTopoLdg: {
      static_cast<GpuResult&>(result) =
          topo_color(g, make_gpu_options(opts, s == Scheme::kTopoLdg));
      break;
    }
    case Scheme::kDataBase:
    case Scheme::kDataLdg:
    case Scheme::kDataAtomic:
    case Scheme::kDataWarp:
    case Scheme::kDataLdf: {
      DataOptions o;
      static_cast<GpuOptions&>(o) = make_gpu_options(opts, s == Scheme::kDataLdg);
      o.scan_push = s != Scheme::kDataAtomic;
      o.ldf_tiebreak = s == Scheme::kDataLdf;
      static_cast<GpuResult&>(result) =
          s == Scheme::kDataWarp ? data_warp_color(g, o) : data_color(g, o);
      break;
    }
    case Scheme::kCsrColor:
    case Scheme::kJpGpu: {
      CsrColorOptions o;
      static_cast<GpuOptions&>(o) = make_gpu_options(opts, false);
      o.seed = opts.seed * 0x9e3779b97f4a7c15ULL + 1;
      if (s == Scheme::kJpGpu) {
        o.num_hashes = 1;
        o.use_min_sets = false;
      }
      static_cast<GpuResult&>(result) = csrcolor(g, o);
      break;
    }
    case Scheme::kJonesPlassmann: {
      JpOptions o;
      o.seed = opts.seed;
      JpResult r = jones_plassmann(g, o);
      result.coloring = std::move(r.coloring);
      result.wall_ms = r.wall_ms;
      result.iterations = r.rounds;
      break;
    }
    case Scheme::kGmOpenMp: {
      GmOmpResult r = gm_openmp(g);
      result.coloring = std::move(r.coloring);
      result.wall_ms = r.wall_ms;
      result.iterations = r.rounds;
      break;
    }
  }
  result.num_colors = count_colors(result.coloring);
  const VerifyResult verify = verify_coloring(g, result.coloring);
  SPECKLE_CHECK(verify.proper, std::string(scheme_name(s)) +
                                   " produced an improper coloring: " +
                                   verify.to_string());
  return result;
}

}  // namespace speckle::coloring
