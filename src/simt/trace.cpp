#include "simt/trace.hpp"

#include <algorithm>
#include <cstring>

#include "support/check.hpp"

namespace speckle::simt {
namespace {

/// Upper bound on lanes per merge (warp_size is 32 on every modeled device;
/// the headroom keeps the scratch arrays safe for exotic configs).
constexpr std::size_t kMaxLanes = 64;

constexpr std::uint16_t kSyncKey =
    ThreadTrace::make_key(OpKind::kSync, Space::kGlobal);

}  // namespace

std::vector<std::uint64_t> coalesce(std::span<const std::uint64_t> addrs,
                                    std::span<const std::uint8_t> sizes,
                                    std::uint32_t line_bytes) {
  SPECKLE_CHECK(addrs.size() == sizes.size(), "coalesce: addr/size mismatch");
  Coalescer coalescer(line_bytes);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    coalescer.add(addrs[i], sizes[i]);
  }
  const auto lines = coalescer.lines();
  return {lines.begin(), lines.end()};
}

void merge_warp(std::span<const ThreadTrace> lanes, std::uint32_t line_bytes,
                WarpTrace& out) {
  SPECKLE_CHECK(!lanes.empty(), "merge_warp: no lanes");
  SPECKLE_CHECK(lanes.size() <= kMaxLanes, "merge_warp: too many lanes");
  out.clear();
  const std::size_t n = lanes.size();
  std::array<std::uint32_t, kMaxLanes> cursor{};
  Coalescer coalescer(line_bytes);
  std::array<std::uint64_t, kMaxLanes> atomic_addrs;

  // Hoist the per-lane SoA streams: the scans and gathers below touch these
  // small pointer arrays, not the trace objects.
  std::array<const std::uint16_t*, kMaxLanes> keys;
  std::array<const std::uint16_t*, kMaxLanes> cs;  // count-or-size stream
  std::array<const std::uint64_t*, kMaxLanes> addrs;
  std::array<std::uint32_t, kMaxLanes> len;
  for (std::size_t l = 0; l < n; ++l) {
    keys[l] = lanes[l].key_data();
    cs[l] = lanes[l].cs_data();
    addrs[l] = lanes[l].addr_data();
    len[l] = static_cast<std::uint32_t>(lanes[l].size());
  }

  // Whether ANY access of ANY lane can straddle a line boundary (or is an
  // aligned zero-size access, which the Coalescer drops), decided once per
  // warp from the traces' append-time straddle summaries instead of per
  // lane per op. Warps with a straddler route every memory op through the
  // Coalescer — the reference path, so the output is unchanged.
  std::uint64_t straddle_or = 0;
  for (std::size_t l = 0; l < n; ++l) straddle_or |= lanes[l].straddle_or();
  const bool any_straddle = straddle_or >= line_bytes;

  // Two-phase memory-op coalesce shared by every path below. Phase 1 reads
  // each participating lane's address through the pure accessor addr_of —
  // independent loads the core can overlap — and phase 2 runs a branchless
  // ascending dedup scan over the dense local line array (the speculative
  // store + predicated length bump beats branching on the lane pattern:
  // irregular adjacency makes "same line as last?" genuinely unpredictable).
  // Feeding the Coalescer lane-by-lane instead chains every insert through
  // the previous one's state, a serial dependency the dominant in-order
  // single-line warp pattern doesn't need. Out-of-order lanes (and any
  // straddling warp, above) fall back to the Coalescer, whose insertion the
  // scan specializes — the emitted line sequence is identical either way.
  // line_bytes is a power of two (the Coalescer constructor checked).
  const std::uint64_t line_mask = line_bytes - 1;
  std::array<std::uint64_t, kMaxLanes> lane_lines;
  std::array<std::uint64_t, kMaxLanes> lines_out;
  auto emit_mem = [&](OpKind kind, Space space, std::uint16_t active,
                      std::size_t cnt, auto&& addr_of, auto&& size_of) {
    bool slow = any_straddle;
    std::size_t m = 0;
    if (!slow && cnt != 0) {
      for (std::size_t l = 0; l < cnt; ++l) {
        lane_lines[l] = addr_of(l) & ~line_mask;
      }
      std::uint64_t prev = lane_lines[0];
      lines_out[0] = prev;
      m = 1;
      bool unordered = false;
      for (std::size_t l = 1; l < cnt; ++l) {
        const std::uint64_t v = lane_lines[l];
        unordered |= v < prev;
        lines_out[m] = v;
        m += v != prev;
        prev = v;
      }
      slow = unordered;
    }
    if (slow) {
      coalescer.reset();
      for (std::size_t l = 0; l < cnt; ++l) {
        coalescer.add(addr_of(l), size_of(l));
      }
      out.push_op(kind, space, 1, active, coalescer.lines());
    } else {
      out.push_op(kind, space, 1, active, {lines_out.data(), m});
    }
  };

  // Whole-trace fast path: when every lane ran the exact same (kind, space)
  // sequence the general loop below would take its converged branch every
  // round. Decide that once with vectorized stream compares, then emit
  // without any cursor or participation bookkeeping. Produces the identical
  // instruction stream. Most coloring warps do not qualify: their lanes
  // loop over adjacency lists of different lengths (docs/simulator.md §10).
  // Empty lanes may hold null streams, which memcmp must never see (even
  // at length 0), so a zero length skips the compare.
  bool lockstep = true;
  for (std::size_t l = 1; l < n && lockstep; ++l) {
    lockstep = len[l] == len[0] &&
               (len[0] == 0 ||
                std::memcmp(keys[l], keys[0], len[0] * sizeof(keys[0][0])) == 0);
  }
  if (lockstep) {
    const std::uint16_t active = static_cast<std::uint16_t>(n);
    for (std::uint32_t i = 0; i < len[0]; ++i) {
      const std::uint16_t key = keys[0][i];
      const OpKind kind = static_cast<OpKind>(key >> 8);
      const Space space = static_cast<Space>(key & 0xff);
      switch (kind) {
        case OpKind::kLoad:
        case OpKind::kStore:
          emit_mem(
              kind, space, active, n,
              [&](std::size_t l) { return addrs[l][i]; },
              [&](std::size_t l) { return cs[l][i]; });
          break;
        case OpKind::kAtomic:
          for (std::size_t l = 0; l < n; ++l) atomic_addrs[l] = addrs[l][i];
          out.push_op(kind, space, 1, active, {atomic_addrs.data(), n});
          break;
        case OpKind::kCompute: {
          std::uint16_t inst = 0;
          for (std::size_t l = 0; l < n; ++l) {
            inst = std::max(inst, cs[l][i]);
          }
          out.push_op(kind, space, inst, active);
          break;
        }
        default:  // kSharedAccess, kSync: unit count, no addresses
          out.push_op(kind, space, 1, active);
          break;
      }
    }
    return;
  }

  for (;;) {
    // Fast path: every lane alive and at the same (kind, space) — the
    // fully-converged case. One pass over the 2-byte key stream decides it,
    // and the same pass's gather emits the warp instruction. (When the
    // shared key is kSync this matches the general path too: all live lanes
    // are at the barrier, so the sync leader would have been picked.)
    if (cursor[0] < len[0]) {
      const std::uint16_t key0 = keys[0][cursor[0]];
      bool converged = true;
      for (std::size_t l = 1; l < n; ++l) {
        if (cursor[l] >= len[l] || keys[l][cursor[l]] != key0) {
          converged = false;
          break;
        }
      }
      if (converged) {
        const OpKind kind = static_cast<OpKind>(key0 >> 8);
        const Space space = static_cast<Space>(key0 & 0xff);
        const std::uint16_t active = static_cast<std::uint16_t>(n);
        switch (kind) {
          case OpKind::kLoad:
          case OpKind::kStore:
            emit_mem(
                kind, space, active, n,
                [&](std::size_t l) { return addrs[l][cursor[l]]; },
                [&](std::size_t l) { return cs[l][cursor[l]]; });
            for (std::size_t l = 0; l < n; ++l) ++cursor[l];
            break;
          case OpKind::kAtomic:
            for (std::size_t l = 0; l < n; ++l) {
              atomic_addrs[l] = addrs[l][cursor[l]++];
            }
            out.push_op(kind, space, 1, active, {atomic_addrs.data(), n});
            break;
          case OpKind::kCompute: {
            std::uint16_t inst = 0;
            for (std::size_t l = 0; l < n; ++l) {
              inst = std::max(inst, cs[l][cursor[l]++]);
            }
            out.push_op(kind, space, inst, active);
            break;
          }
          default:  // kSharedAccess, kSync: unit count, no addresses
            for (std::size_t l = 0; l < n; ++l) ++cursor[l];
            out.push_op(kind, space, 1, active);
            break;
        }
        continue;
      }
    }

    // General (divergent) path. Find the leader: the lowest lane that still
    // has ops and is NOT parked at a barrier — kSync is an alignment fence,
    // so divergent lanes finish their pre-barrier work first and all lanes
    // consume the barrier as one warp instruction. Its current op's (kind,
    // space) selects which lanes participate this round; lanes whose
    // current op differs are on a divergent path and wait their turn.
    int leader = -1;
    int sync_leader = -1;
    for (std::size_t lane = 0; lane < n; ++lane) {
      if (cursor[lane] >= len[lane]) continue;
      if (keys[lane][cursor[lane]] == kSyncKey) {
        if (sync_leader < 0) sync_leader = static_cast<int>(lane);
        continue;
      }
      leader = static_cast<int>(lane);
      break;
    }
    if (leader < 0) leader = sync_leader;  // every live lane is at the barrier
    if (leader < 0) break;
    const std::uint16_t key = keys[leader][cursor[leader]];
    const OpKind kind = static_cast<OpKind>(key >> 8);
    const Space space = static_cast<Space>(key & 0xff);

    std::uint16_t inst = 0;
    std::uint16_t active = 0;
    std::size_t num_addr = 0;
    std::array<std::uint64_t, kMaxLanes> lane_addr;
    std::array<std::uint16_t, kMaxLanes> lane_size;
    for (std::size_t lane = 0; lane < n; ++lane) {
      const std::uint32_t c = cursor[lane];
      if (c >= len[lane] || keys[lane][c] != key) continue;
      ++cursor[lane];
      ++active;
      if (kind == OpKind::kCompute) {
        inst = std::max(inst, cs[lane][c]);
      } else if (kind == OpKind::kLoad || kind == OpKind::kStore) {
        lane_addr[num_addr] = addrs[lane][c];
        lane_size[num_addr++] = cs[lane][c];
      } else if (kind == OpKind::kAtomic) {
        atomic_addrs[num_addr++] = addrs[lane][c];
      }
    }
    if (kind == OpKind::kLoad || kind == OpKind::kStore) {
      emit_mem(
          kind, space, active, num_addr,
          [&](std::size_t l) { return lane_addr[l]; },
          [&](std::size_t l) { return lane_size[l]; });
    } else if (kind == OpKind::kAtomic) {
      out.push_op(kind, space, 1, active, {atomic_addrs.data(), num_addr});
    } else {
      // Compute keeps the lane max; memory/sync ops issue once.
      out.push_op(kind, space, kind == OpKind::kCompute ? inst : 1, active);
    }
  }
}

WarpTrace merge_warp(std::span<const ThreadTrace> lanes, std::uint32_t line_bytes) {
  WarpTrace out;
  merge_warp(lanes, line_bytes, out);
  return out;
}

}  // namespace speckle::simt
