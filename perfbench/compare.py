#!/usr/bin/env python3
"""Compares two HEBS benchmark result sets (stdlib only).

A result set is the JSON-lines file run.py writes: one record per run
(`run.py --out FILE`, default .bench_out/records.jsonl).  For every workload x metric present in both sets it
prints each side's median and quartiles, the share of paired runs the
new side won (runs pair by seed; ties count for neither side) and a
verdict:

  improved      at least 10 pairs, new wins >= 9/10 of them and the medians differ, in
                the metric's better direction, by more than the base's
                interquartile distance (choosing-metrics guide, section 8)
  worse         new median worse than the base median by more than the
                bound in BENCHMARK.json (per-layer metrics, which have no
                bound: the improved rule in the other direction)
  within-bound  neither, and the base's own spread is within the bound
  unresolved    anything else: the spread is wider than the bound, or
                there is no bound -- not evidence of no change

  python3 perfbench/compare.py base.jsonl new.jsonl

Exits 1 when any end-to-end metric is worse.  Records whose
provenance (CPU, nproc, compiler, build type, backend) differs between
the sets are compared anyway, under a printed warning.
"""

import argparse
import json
import os
import sys

import pbstats

HERE = os.path.dirname(os.path.abspath(__file__))
PROVENANCE_KEYS = ["cpu_model", "nproc", "compiler", "build_type", "backend"]


def load_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def load_metric_info(benchmark_path):
    """{name: (better, bound or None)} from BENCHMARK.json; per-layer
    metrics have no bound."""
    with open(benchmark_path) as f:
        bench = json.load(f)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}


def by_metric(records):
    """{(workload, metric): {seed: value}}; a repeated seed keeps the
    later run."""
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return out


def provenance(records):
    seen = set()
    for r in records:
        seen.add(tuple((k, str(r["provenance"].get(k))) for k in PROVENANCE_KEYS))
    return seen


def compare(base, new, info):
    """Rows (workload, metric, base values, new values, verdict tuple)."""
    b = by_metric(base)
    n = by_metric(new)
    rows = []
    for key in sorted(set(b) & set(n)):
        workload, name = key
        if name not in info:
            continue
        seeds = sorted(set(b[key]) & set(n[key]))
        if seeds:
            bv = [b[key][s] for s in seeds]
            nv = [n[key][s] for s in seeds]
        else:  # no shared seeds: pair in run order
            bv = list(b[key].values())
            nv = list(n[key].values())
            k = min(len(bv), len(nv))
            bv, nv = bv[:k], nv[:k]
        if not bv:
            continue
        better, bound = info[name]
        rows.append((workload, name, bv, nv, pbstats.verdict(bv, nv, better, bound), bound))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    base = load_set(args.base)
    new = load_set(args.new)
    if provenance(base) != provenance(new):
        print("warning: provenance differs between the sets; numbers may not be comparable")
        for side, recs in (("base", base), ("new", new)):
            for p in sorted(provenance(recs)):
                print("  %s: %s" % (side, ", ".join("%s=%s" % kv for kv in p)))
    rows = compare(base, new, load_metric_info(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    print("%-14s %-34s %-30s %-30s %7s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "won", "verdict"))
    worse = False
    for workload, name, bv, nv, (v, won, pairs), bound in rows:
        bq = pbstats.quartiles(bv)
        nq = pbstats.quartiles(nv)
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        print("%-14s %-34s %-30s %-30s %+6.1f%% %2d/%-3d  %s" % (
            workload, name,
            "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
            "%.5g [%.5g, %.5g]" % (nq[1], nq[0], nq[2]),
            100.0 * change, won, pairs, v))
        worse = worse or (v == "worse" and bound is not None)
    if not rows:
        print("no workload x metric in common")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
