#!/usr/bin/env python3
"""The HEBS benchmark: one command, named workloads, named metrics.

Builds perfbench/hebs_perfbench (and the library, from the enclosing
source tree) into $CARGO_TARGET_DIR or .bench_build, runs one workload
and prints its metrics.  The last line of stdout is one JSON object:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"frame_p50_ms": {"value": 9.1, "unit": "ms"}, ...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  BENCHMARK.json at the repo root names the workloads and the
metrics with their units; perfbench/README.md defines them.  Each run
also appends a full record -- provenance, every metric with its
within-run quartiles, the correctness counts -- to the JSON-lines
result set --out (default .bench_out/records.jsonl).

  python3 perfbench/run.py --workload still-96 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all --runs 10 --out .bench_out/set.jsonl

Exit status: 0 when every output checked correct, 1 when a check
failed (the result line still prints, with "correct": false), 2 when
the benchmark itself could not run (no result line).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pbstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROCESSES = 5
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    """Configures once, then (re)builds hebs_perfbench; returns its path."""
    bdir = build_dir()
    start = time.monotonic()
    if not os.path.exists(os.path.join(bdir, "build.ninja")) and \
            not os.path.exists(os.path.join(bdir, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", bdir, "--target", "hebs_perfbench",
               "-j", jobs], BUILD_TIMEOUT_S - (time.monotonic() - start))
    binary = os.path.join(bdir, "hebs_perfbench")
    if not os.path.exists(binary):
        raise BenchError("build produced no " + binary)
    return binary


# -------------------------------------------------------------------- run

def run_child(binary, args, deadline):
    """Runs hebs_perfbench once and returns its raw JSON record."""
    out = os.path.join(OUT_DIR, "raw-%d.json" % os.getpid())
    proc = subprocess.Popen([binary] + args + ["--out", out],
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("hebs_perfbench timed out: " + " ".join(args))
    finally:
        # Also reached when SIGTERM ends this script mid-run (see main).
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("hebs_perfbench failed (%d): %s" % (proc.returncode, " ".join(args)))
    with open(out) as f:
        raw = json.load(f)
    os.remove(out)
    return raw


def metric(value, samples=None):
    """A metric entry: the value plus, when it summarizes samples, their
    quartiles and count."""
    m = {"value": value}
    if samples:
        q1, _, q3 = pbstats.quartiles(samples)
        m.update(q1=q1, q3=q3, n=len(samples))
    return m


def end_to_end(raw, setups):
    t = raw["timed"]
    samples = t["sample_ms"]
    return {
        "frame_p50_ms": metric(statistics.median(samples), samples),
        "frame_p90_ms": metric(pbstats.percentile(samples, 90), samples),
        "fps": metric(t["frames"] / t["call_s"]),
        "power_saving_pct": metric(raw["saving_pct_mean"]),
        "setup_s": metric(statistics.median(setups), setups),
        "peak_rss_mb": metric(raw["peak_rss_kib"] / 1024.0),
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw, trace_path, names):
    """The per-layer metrics; span metrics are those of `names` shaped
    span.<span>.self_share, with '_' in the BENCHMARK.json name for '-'
    in the trace's span name."""
    s = raw["stats"]
    frames = raw["timed"]["frames"]
    untraced_ms = statistics.median(raw["timed"]["sample_ms"])
    # Rows fan out only in still-512's fan-out phase; elsewhere the
    # threadpool counters come from the one-thread timed loop.
    fs = raw.get("fanout_stats", s)
    fanout_frames = raw["fanout"]["frames"] if "fanout" in raw else frames
    out = {
        "search.range_probes_per_frame": s["range_probes"] / frames,
        "search.beta_probes_per_frame": s["beta_probes"] / frames,
        "search.eval_memo_hit_ratio": ratio(s["eval_memo_hits"],
                                            s["eval_memo_hits"] + s["eval_memo_misses"]),
        "search.range_memo_hit_ratio": ratio(s["range_memo_hits"],
                                             s["range_memo_hits"] + s["range_memo_misses"]),
        "search.early_exits_identity_feasible": raw["early_exit_identity_feasible_frames"],
        "temporal.byte_identical_ratio": ratio(s["reuse_byte_identical"], s["temporal_frames"]),
        "temporal.delta_refresh_ratio": ratio(s["reuse_delta_refresh"], s["temporal_frames"]),
        "temporal.cold_ratio": ratio(s["reuse_cold"], s["temporal_frames"]),
        "temporal.warm_verified_ratio": ratio(s["warm_verified"],
                                              s["reuse_delta_refresh"] + s["reuse_cold"]),
        "threadpool.fanouts_per_frame": fs["parallel_for_calls"] / fanout_frames,
        "threadpool.items_per_fanout": ratio(fs["parallel_for_items"], fs["parallel_for_calls"]),
        "threadpool.queued_ratio": ratio(fs["parallel_for_queued"], fs["parallel_for_calls"]),
        "threadpool.row_fanout_time_ratio": (
            statistics.median(raw["fanout"]["sample_ms"]) / untraced_ms if "fanout" in raw else 0.0),
        "pool.recycle_ratio": ratio(s["pool_recycled"], s["pool_recycled"] + s["pool_fresh"]),
        "pool.heap_fallbacks_per_frame": s["pool_heap_fallbacks"] / frames,
    }
    for name, us in raw["layers_us"].items():
        if name.endswith("_us"):
            out[name] = us
    traced = raw["traced"]
    events = pbstats.load_trace(trace_path)
    spans = pbstats.span_breakdown(events, traced["frames"], traced["call_s"] * 1e9)
    out["span.frame.ms_per_frame"] = spans["frame_ms_per_frame"]
    for key in names:
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "span" and parts[2] == "self_share":
            out[key] = spans["self_share"].get(parts[1].replace("_", "-"), 0.0)
    out["span.unattributed_ratio"] = spans["unattributed_ratio"]
    out["obs.trace_overhead_ratio"] = statistics.median(traced["sample_ms"]) / untraced_ms - 1.0
    detail = {
        "span_self_ms_per_frame": spans["self_ms_per_frame"],
        "span_count_per_frame": spans["count_per_frame"],
        "replayed_frames": raw["layers_us"].get("replayed_frames"),
        "stats": s,
    }
    return {k: metric(v) for k, v in out.items()}, detail


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") or line.startswith("Model"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def cpu_steal():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        values = [int(v) for v in fields[1:9]]
        return values[7], sum(values)
    except (OSError, ValueError, IndexError):
        return None


def run_workload(binary, workload, seed, seconds, trace, run_index=1, runs=1):
    """One benchmark run; returns the full record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        # Set-up cost is a per-process first-call cost: each sample is a
        # fresh process.  The measuring process below adds one more.
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(run_child(binary, common + ["--setup-only"], deadline)["setup_s"])
    trace_path = os.path.join(OUT_DIR, "trace-%s.json" % workload)
    steal0 = cpu_steal()
    raw = run_child(binary, common + (["--traced", "--trace-file", trace_path] if trace else []),
                    deadline)
    steal1 = cpu_steal()
    # Share of all CPUs' time the hypervisor gave to other guests while
    # the measuring process ran: a slower run with high steal says the
    # machine, not the program, was slower.
    steal_pct = None
    if steal0 and steal1 and steal1[1] > steal0[1]:
        steal_pct = 100.0 * (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    setups.append(raw["setup_s"])
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer" if trace else "end_to_end"]}
    if trace:
        if raw["dropped_spans"]:
            raise BenchError("trace dropped %d spans" % raw["dropped_spans"])
        metrics, detail = per_layer(raw, trace_path, units)
    else:
        metrics, detail = end_to_end(raw, setups), {}
    if set(units) != set(metrics):
        raise BenchError("metric set differs from BENCHMARK.json: %s" %
                         sorted(set(units) ^ set(metrics)))
    for name, m in metrics.items():
        m["unit"] = units[name]
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "run_index": run_index,
        "provenance": {
            "nproc": os.cpu_count(),
            "thread_count": raw["thread_count"],
            "cpu_model": cpu_model(),
            "compiler": raw["compiler"],
            "build_type": raw["build_type"],
            "backend": raw["backend"],
            "git_sha": git_sha(),
            "seed": seed,
            "runs": runs,
            "python": platform.python_version(),
        },
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_steal_pct": steal_pct,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "early_exit_frames": raw["early_exit_frames"],
        "early_exit_identity_feasible_frames": raw["early_exit_identity_feasible_frames"],
        "flicker_adjusted_frames": raw["flicker_adjusted_frames"],
        "failures": raw["failures"],
        "metrics": metrics,
        "detail": detail,
    }


def append_record(path, record):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def result_line(record):
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    })


# -------------------------------------------------------------- run them all

def summarize(records, bounds):
    """Median [q1, q3] and spread per workload x metric, one line each."""
    groups = {}
    for r in records:
        for name, m in r["metrics"].items():
            groups.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    lines = []
    for (workload, trace, name), values in sorted(groups.items()):
        q1, med, q3 = pbstats.quartiles(values)
        line = "%-14s %-34s median %-12.6g [%.6g, %.6g] n=%d spread %.4f" % (
            workload, name, med, q1, q3, len(values), pbstats.spread(values))
        if name in bounds:
            line += " (bound %.2f)" % bounds[name]
        lines.append(line)
    return lines


def run_all(args):
    """Every BENCHMARK.json workload --runs times untraced (seeds --seed,
    --seed+1, ...), then once traced."""
    binary = build()
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = []
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, n in ((0, args.runs), (1, 1)):
            for i in range(n):
                seed = args.seed + i
                rec = run_workload(binary, workload, seed, args.seconds, trace, i + 1, n)
                append_record(args.out, rec)
                records.append(rec)
                ok = ok and rec["correct"]
                log("%s seed %d trace %d: correct=%s failed=%d/%d" % (
                    workload, seed, trace, rec["correct"], rec["failed"], rec["attempted"]))
    if records:
        print("provenance: " + json.dumps(
            {k: v for k, v in records[0]["provenance"].items() if k != "seed"}, sort_keys=True))
    for line in summarize(records, bounds):
        print(line)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload --runs times untraced (seeds --seed, "
                         "--seed+1, ...), then once traced")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "records.jsonl"),
                    help="JSON-lines result set each run appends to")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so run_child stops its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.seconds is None:
            args.seconds = float(load_benchmark()["run_seconds"])
        if args.all:
            return run_all(args)
        if not args.workload:
            ap.error("--workload or --all is required")
        workloads = [w["name"] for w in load_benchmark()["workloads"]]
        if args.workload not in workloads:
            ap.error("--workload must be one of " + ", ".join(workloads))
        binary = build()
        rec = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: error: %r" % e)
        return 2
    append_record(args.out, rec)
    for msg in rec["failures"]:
        log("check failed: " + msg)
    for name, m in sorted(rec["metrics"].items()):
        print("%s %s: %.6g %s" % (args.workload, name, m["value"], m["unit"]))
    print(result_line(rec))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
