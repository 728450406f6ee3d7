#!/usr/bin/env python3
"""speckle's repository benchmark: build, run one workload, report metrics.

    python3 speckbench/run.py --workload suite-sim --seed 1 --seconds 20 --trace 0
    python3 speckbench/run.py --workload all --seed 1      # every workload
    python3 speckbench/run.py --scaling --seed 1           # threads 1/2/4 side report

Run from the repository root. The benchmark builds itself from source
(speckbench/CMakeLists.txt) under $CARGO_TARGET_DIR, default .bench_build,
runs the benchmark program (speckbench.cpp) for one workload and turns its
raw record into metrics.
Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json lists. The full result record, with
provenance, every named metric and the per-layer table, is written to
<build>/results/. The exit status is nonzero when the build or the run
fails, or when any correctness or determinism check fails.
README.md describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-sim", "fleet-p4", "serve-mutate")
DIGESTS = os.path.join(HERE, "digests.json")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build(build_root):
    """Configure and build the benchmark program and the server; return
    their paths."""
    cmake_dir = os.path.join(build_root, "cmake")
    logfile = os.path.join(build_root, "build.log")
    os.makedirs(build_root, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, MAX_THREADS)))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", jobs]]
    with open(logfile, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(logfile) as f:
                    log("".join(f.readlines()[-30:]))
                raise SystemExit("speckbench: build failed: " + " ".join(cmd))
    return (os.path.join(cmake_dir, "speckbench"),
            os.path.join(cmake_dir, "speckle_serve"), cmake_dir)


def provenance(cmake_dir, threads, seed):
    # Never let git look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def sh(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=env, timeout=20).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    commit = sh(["git", "rev-parse", "HEAD"]) or "unknown"
    dirty = None
    if commit != "unknown":
        dirty = bool(sh(["git", "status", "--porcelain", "--untracked-files=no"]))
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = (sh([path, "--version"]).splitlines() or [path])[0]
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"commit": commit, "dirty": dirty, "nproc": os.cpu_count(),
            "build_type": build_type, "compiler": compiler,
            "simulator_threads": threads, "seed": seed,
            "host": platform.machine() + " " + platform.system()}


# --- statistics --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """The highest of p99.9/p99/p95/p90/p75 with >= 10 samples beyond it.

    Returns (value, percentile, samples); falls back to the maximum when
    there are too few samples for any of them.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        index = math.ceil(pct / 100.0 * n) - 1
        if 0 <= index and n - 1 - index >= 10:
            return ordered[index], pct, n
    return (ordered[-1] if ordered else float("nan")), 100.0, n


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --- metrics -----------------------------------------------------------------

def end_to_end(workload, rec):
    """The gated metrics (BENCHMARK.json end_to_end) and the named ones."""
    sim = rec["sim"]
    op_tail, op_pct, op_n = tail(rec["op_ms"])
    # Gated host times are CPU seconds: on a shared host, time stolen by
    # other tenants makes wall time swing by tens of percent between runs.
    gated = {
        "setup_s": (median(rec["setup_cpu_s"]), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "pass_cpu_s": (sum(rec["pass_cpu_s"]) / len(rec["pass_cpu_s"]), "s"),
        "sim_ms_geomean": (sim["gpu_model_ms_geomean"], "ms"),
        "colors_geomean": (sim["colors_geomean"], "colors"),
    }
    tails = {"op_tail_ms": {"percentile": op_pct, "samples": op_n}}
    attempted = max(1, rec["attempted"])
    named = {
        "setup_s": (gated["setup_s"][0], "s", "host-cpu"),
        "setup_wall_s": (median(rec["setup_s"]), "s", "host"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB", "host"),
        "failed_frac": (rec["failed"] / attempted, "fraction", "-"),
        "pass_cpu_s": (gated["pass_cpu_s"][0], "s", "host-cpu"),
        "op_p50_ms": (median(rec["op_ms"]), "ms", "host"),
        "op_tail_ms": (op_tail, "ms", "host"),
    }
    if workload == "suite-sim":
        named["sweep_s"] = (median(rec["pass_s"]), "s", "host")
        named["gpu_model_ms_geomean"] = (sim["gpu_model_ms_geomean"], "ms", "sim")
        named["colors_geomean"] = (sim["colors_geomean"], "colors", "sim")
    elif workload == "fleet-p4":
        named["fleet_s"] = (median(rec["pass_s"]), "s", "host")
        named["p4_speedup_geomean"] = (sim["p4_speedup_geomean"], "x", "sim")
        named["p4_colors_ratio_max"] = (sim["p4_colors_ratio_max"], "x", "sim")
    else:
        samples = rec["samples"]
        m_tail, m_pct, m_n = tail(samples["mutate_ms"])
        q_tail, q_pct, q_n = tail(samples["query_us"])
        named["mutate_p50_ms"] = (median(samples["mutate_ms"]), "ms", "host")
        named["mutate_tail_ms"] = (m_tail, "ms", "host")
        named["query_p50_us"] = (median(samples["query_us"]), "us", "host")
        named["query_tail_us"] = (q_tail, "us", "host")
        named["serve_rps"] = (rec["counts"]["serve.stream_requests"]
                              / rec["counts"]["serve.stream_s"],
                              "1/s", "host")
        named["color_drift"] = (sim["color_drift"], "x", "sim")
        tails["mutate_tail_ms"] = {"percentile": m_pct, "samples": m_n}
        tails["query_tail_us"] = {"percentile": q_pct, "samples": q_n}
    return gated, named, tails


def region_table(region):
    """Per-span rows of one traced region, per unit of work, plus `other`."""
    units = max(1, region["units"])
    wall = region["wall_ms"]
    rows = [(s["name"], s["count"] / units, s["self_ms"] / units,
             100.0 * s["self_ms"] / wall if wall > 0 else 0.0)
            for s in region["spans"]]
    covered = sum(s["self_ms"] for s in region["spans"])
    other = wall - covered
    rows.append(("other", 0.0, other / units,
                 100.0 * other / wall if wall > 0 else 0.0))
    accounted = 100.0 * covered / wall if wall > 0 else 0.0
    return rows, accounted


def span_ms(region, prefix):
    """Self ms per unit of work of the spans whose names start with `prefix`."""
    total = sum(s["self_ms"] for s in region["spans"]
                if s["name"].startswith(prefix))
    return total / max(1, region["units"])


def per_layer(workload, rec):
    """Per-layer metrics of a traced run: the gated set (BENCHMARK.json
    per_layer, measured on every workload) and the workload's named set."""
    regions = rec["regions"]
    counts = rec["counts"]
    timed = regions["timed"]
    _, accounted = region_table(timed)
    untraced = median(rec["pass_s"])
    overhead = 100.0 * (median(rec["traced_pass_s"]) - untraced) / untraced
    if workload == "suite-sim":
        graph_region, coloring_region = regions["setup"], timed
        coloring_prefix = "coloring.run_scheme."
    elif workload == "fleet-p4":
        graph_region, coloring_region = timed, timed
        coloring_prefix = "coloring.run_scheme."
    else:
        graph_region, coloring_region = regions["mirror_setup"], regions["mirror"]
        coloring_prefix = "coloring."
    insts = counts["simt.warp_insts"]
    gated = {
        "graph.gen_ms": (span_ms(graph_region, "graph.generate"), "ms"),
        "graph.build_ms": (span_ms(graph_region, "graph.build_csr"), "ms"),
        "coloring.host_ms": (span_ms(coloring_region, coloring_prefix), "ms"),
        "coloring.verify_ms": (
            rec["samples"]["verify_ms"][0] if workload == "serve-mutate"
            else span_ms(timed, "coloring.verify"), "ms"),
        "coloring.rounds": (counts["coloring.rounds"], "count"),
        "simt.warp_insts": (insts, "count"),
        "simt.launches": (counts["simt.launches"], "count"),
        "simt.dram_bytes": (counts["simt.dram_bytes"], "bytes"),
        "simt.host_ns_per_warp_inst": (counts["simt.host_ms"] * 1e6 / insts, "ns"),
        "trace.other_ms": (region_table(timed)[0][-1][2], "ms"),
        "trace.accounted_pct": (accounted, "%"),
        "trace.overhead_pct": (overhead, "%"),
    }
    named = {}
    if workload == "suite-sim":
        named["graph.gen_ms"] = gated["graph.gen_ms"]
        named["graph.build_ms"] = gated["graph.build_ms"]
        for scheme in ("3-step-GM", "T-base", "T-ldg", "D-base", "D-ldg", "csrcolor"):
            named["coloring.%s.host_ms" % scheme] = (
                span_ms(timed, "coloring.run_scheme." + scheme), "ms")
        named["coloring.rounds"] = gated["coloring.rounds"]
        named["coloring.verify_ms"] = gated["coloring.verify_ms"]
        named["cpumodel.seq_host_ms"] = (span_ms(timed, "cpumodel."), "ms")
    elif workload == "fleet-p4":
        named["graph.gen_ms"] = gated["graph.gen_ms"]
        named["graph.build_ms"] = gated["graph.build_ms"]
        named["coloring.verify_ms"] = gated["coloring.verify_ms"]
        named["multidev.p1_host_ms"] = (span_ms(timed, "coloring.run_scheme.D-ldg"), "ms")
        named["multidev.p4_host_ms"] = (span_ms(timed, "multidev.run_scheme"), "ms")
        named["multidev.winst_inflation"] = (
            counts["multidev.p4_warp_insts"] / counts["multidev.p1_warp_insts"], "x")
        for key, unit in (("rounds_p4", "count"), ("exchange_batches", "count"),
                          ("d2d_bytes", "bytes"), ("stall_ms", "ms"),
                          ("cut_edges", "count")):
            named["multidev." + key] = (counts["multidev." + key], unit)
    else:
        mirror = regions["mirror"]
        samples = rec["samples"]
        named["graph.mutate_ms"] = (span_ms(mirror, "graph.apply_mutations"), "ms")
        named["coloring.recolor_ms"] = (span_ms(mirror, "coloring.recolor_region"), "ms")
        named["coloring.dirty_per_batch"] = (counts["coloring.dirty_per_batch"], "count")
        named["coloring.incremental_frac"] = (counts["coloring.incremental_frac"], "x")
        session_q = median(samples["session.query_us"])
        named["serve.session.query_us"] = (session_q, "us")
        named["serve.session.mutate_ms"] = (median(samples["session.mutate_ms"]), "ms")
        named["serve.transport.query_us"] = (median(samples["query_us"]) - session_q, "us")
        named["serve.load_ms"] = (median(samples["serve.load_ms"]), "ms")
        named["serve.first_color_ms"] = (median(samples["serve.first_color_ms"]), "ms")
    for key in ("simt.warp_insts", "simt.launches", "simt.dram_bytes",
                "simt.host_ns_per_warp_inst"):
        named[key] = gated[key]
    return gated, named


# --- one run -----------------------------------------------------------------

def run_program(program, serve_bin, build_root, workload, seed, seconds, trace,
               threads):
    """Run the benchmark program in its own process group; return its record."""
    tag = "%s-seed%d-trace%d-%d" % (workload, seed, trace, os.getpid())
    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, tag + ".raw.json")
    socket = os.path.relpath(os.path.join(build_root, "s%d.sock" % os.getpid()))
    cmd = [program, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--threads=%d" % threads, "--serve-bin=" + serve_bin,
           "--socket=" + socket, "--out=" + out]
    if trace:
        cmd.append("--trace-out=" + os.path.join(results, tag + ".trace.json"))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The program's own children (speckle_serve) share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if os.path.exists(socket):
            os.unlink(socket)
    if code != 0:
        raise SystemExit("speckbench: benchmark program %s (exit %s)" % (
            "timed out" if code is None else "failed", code))
    with open(out) as f:
        return json.load(f), out


def check_digest(workload, seed, rec):
    """A failure message when the default seed's digest is not the stored one."""
    with open(DIGESTS) as f:
        stored = json.load(f)
    if seed != stored["default_seed"]:
        return None
    want = stored["digests"].get(workload)
    if want != rec["digest"]:
        return ("determinism digest %s != stored %s: simulated results changed"
                % (rec["digest"], want))
    return None


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def report(workload, rec, trace):
    """Print the human-readable report; return the gated metrics."""
    print("== %s (seed %d) ==" % (workload, rec["provenance"]["seed"]))
    for key, value in sorted(rec["provenance"].items()):
        print("  provenance %-18s %s" % (key, value))
    for key, value in sorted(rec["params"].items()):
        print("  param      %-18s %s" % (key, value))
    if not trace:
        gated, named, tails = end_to_end(workload, rec)
        print("  %-22s %14s  %-9s %s" % ("metric", "value", "unit", "clock"))
        for name, (value, unit, clock) in named.items():
            extra = ""
            if name in tails:
                extra = "  (p%g of %d)" % (tails[name]["percentile"],
                                            tails[name]["samples"])
            print("  %-22s %14s  %-9s %s%s" % (name, fmt(value), unit, clock, extra))
        print("  gated: " + ", ".join("%s=%s %s" % (k, fmt(v), u)
                                      for k, (v, u) in gated.items()))
        rec["tails"] = tails
    else:
        gated, named = per_layer(workload, rec)
        for region_name, region in rec["regions"].items():
            rows, accounted = region_table(region)
            print("  -- traced region %s: %.1f ms over %d units, %.1f%% accounted"
                  % (region_name, region["wall_ms"], region["units"], accounted))
            print("     %-36s %10s %12s %7s" % ("span", "calls/unit", "self ms/unit",
                                               "share"))
            for name, calls, self_ms, share in rows:
                print("     %-36s %10.2f %12.4f %6.1f%%" % (name, calls, self_ms, share))
        print("  %-30s %14s  %s" % ("layer metric", "value", "unit"))
        for name, (value, unit) in named.items():
            print("  %-30s %14s  %s" % (name, fmt(value), unit))
        print("  gated: " + ", ".join("%s=%s %s" % (k, fmt(v), u)
                                      for k, (v, u) in gated.items()))
    rec["named"] = {k: {"value": v[0], "unit": v[1]} for k, v in named.items()}
    return {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}


def run_one(tools, build_root, workload, seed, seconds, trace, threads):
    program, serve_bin, cmake_dir = tools
    rec, raw_path = run_program(program, serve_bin, build_root, workload, seed,
                               seconds, trace, threads)
    rec["provenance"] = provenance(cmake_dir, threads, seed)
    rec["provenance"]["workload"] = workload
    rec["provenance"]["seconds"] = seconds
    problem = check_digest(workload, seed, rec)
    if problem:
        rec["failures"].append(problem)
        rec["failed"] += 1
    metrics = report(workload, rec, trace)
    for failure in rec["failures"]:
        print("  FAILED: " + failure)
    bad = [k for k, m in metrics.items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    for key in bad:
        print("  FAILED: metric %s is not a finite number" % key)
    correct = rec["failed"] == 0 and not bad
    with open(raw_path.replace(".raw.json", ".json"), "w") as f:
        json.dump(rec, f, indent=1)
    return {"correct": correct, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def scaling(tools, build_root, seed):
    """Side report: suite-sim sweep wall at simulator threads 1, 2, 4."""
    base = None
    digests = set()
    print("== thread scaling: suite-sim, seed %d (not gated) ==" % seed)
    print("  %-8s %10s %10s %11s" % ("threads", "sweep_s", "speedup", "efficiency"))
    for threads in (1, 2, 4):
        rec, _ = run_program(tools[0], tools[1], build_root, "suite-sim", seed, 0,
                            0, threads)
        sweep = median(rec["pass_s"])
        base = base or sweep
        digests.add(rec["digest"])
        print("  %-8d %10.3f %10.3f %10.1f%%" % (threads, sweep, base / sweep,
                                                 100.0 * base / sweep / threads))
    print("  digest identical at every thread count: %s" % (len(digests) == 1))
    return len(digests) == 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="suite-sim",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="print the suite-sim thread-scaling side report")
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be >= 1")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tools = build(build_root)
    # One core stays free for the OS and other tenants: on a shared 4-core
    # host, 3 simulator threads were as fast as 4 and steadier.
    threads = max(1, min(os.cpu_count() or 1, MAX_THREADS) - 1)
    if args.scaling:
        return 0 if scaling(tools, build_root, args.seed) else 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_one(tools, build_root, workload, args.seed, args.seconds,
                            args.trace, threads)
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {w + "/" + k: v for w, r in zip(workloads, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
