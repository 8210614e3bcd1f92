"""Arithmetic shared by the HEBS benchmark's runner and comparison tool.

Stdlib only.  Everything here is pure (no I/O beyond json parsing of an
already-open trace), so test_perfbench.py can pin it on fixed inputs.
"""

import json
import statistics


# ------------------------------------------------------------ percentiles

def percentile(values, p):
    """The p-th percentile (0 < p < 100) of `values`, by linear
    interpolation between closest ranks (statistics' 'inclusive'
    method, the same as numpy's default).  One value is its own
    percentile."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them
    (the 'exclusive' method) -- the same picks the acceptance check
    uses for a metric's run-to-run spread.  Fewer than two values have
    no spread: all three are the value."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# ------------------------------------------------------------------ spans

def load_trace(path):
    """The complete ("X") events of a Chrome trace file as
    (name, tid, start_ns, dur_ns) tuples."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    out = []
    for e in events:
        if e.get("ph") != "X":
            continue
        start = int(round(float(e["ts"]) * 1000.0))
        dur = int(round(float(e["dur"]) * 1000.0))
        out.append((e["name"], e.get("tid", 0), start, dur))
    return out


def _union_length(intervals):
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def span_self_times(events):
    """Self time of every event: its duration minus the part of its
    interval that its children cover.

    A child's parent is the innermost event on the same thread whose
    interval contains the child's whole interval (ties between equal
    intervals: the one listed first is the parent).  Children may
    overlap each other; their union is what counts.  Returns a list of
    dicts {name, tid, start, dur, self, parent} (parent is an index or
    None) in input order."""
    nodes = [{"name": n, "tid": t, "start": s, "dur": d, "self": d,
              "parent": None} for n, t, s, d in events]
    children = [[] for _ in nodes]
    by_tid = {}
    for i, node in enumerate(nodes):
        by_tid.setdefault(node["tid"], []).append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (nodes[i]["start"], -nodes[i]["dur"], i))
        stack = []
        for i in idx:
            s = nodes[i]["start"]
            e = s + nodes[i]["dur"]
            # Entries ending before this event starts cannot contain it
            # or anything after it; stale ones deeper in the stack fail
            # the containment test below.
            while stack and nodes[stack[-1]]["start"] + nodes[stack[-1]]["dur"] <= s:
                stack.pop()
            for j in reversed(stack):
                if nodes[j]["start"] + nodes[j]["dur"] >= e:
                    nodes[i]["parent"] = j
                    children[j].append((s, e))
                    break
            stack.append(i)
    for j, iv in enumerate(children):
        nodes[j]["self"] = nodes[j]["dur"] - _union_length(iv)
    return nodes


def span_breakdown(events, frames, call_ns):
    """Per-frame attribution of a traced run.

    The frame time is the summed duration of the library's "frame"
    spans where the traced path emits them (batch and video), else the
    benchmark's own call time `call_ns` (the single-frame facade path,
    which emits no frame span).  Returns {"frame_ms_per_frame",
    "self_ms_per_frame": {name: ms}, "count_per_frame": {name: n},
    "self_share": {name: share of frame time}, "unattributed_ratio"}.
    Unattributed time is the part of the frame time no child span
    covers: the frame spans' own self time, or the call time outside
    every top-level span."""
    nodes = span_self_times(events)
    self_ns = {}
    count = {}
    for n in nodes:
        self_ns[n["name"]] = self_ns.get(n["name"], 0) + n["self"]
        count[n["name"]] = count.get(n["name"], 0) + 1
    frame_spans = [n for n in nodes if n["name"] == "frame"]
    if frame_spans:
        frame_ns = sum(n["dur"] for n in frame_spans)
        unattributed = sum(n["self"] for n in frame_spans)
    else:
        frame_ns = call_ns
        roots = sum(n["dur"] for n in nodes if n["parent"] is None)
        unattributed = max(0, call_ns - roots)
    return {
        "frame_ms_per_frame": frame_ns / 1e6 / frames,
        "self_ms_per_frame": {k: v / 1e6 / frames for k, v in self_ns.items()},
        "count_per_frame": {k: v / frames for k, v in count.items()},
        "self_share": {k: v / frame_ns for k, v in self_ns.items()},
        "unattributed_ratio": unattributed / frame_ns if frame_ns else 0.0,
    }


# ------------------------------------------------------------- comparison

# Fewest paired runs a pair-won verdict rests on (choosing-metrics
# guide, section 8); a single traced run per side decides nothing.
MIN_PAIRS = 10


def verdict(base, new, better, bound=None):
    """Verdict on one metric from two sets of runs.

    `base` and `new` are lists of values; paired runs share an index.
    `better` is "lower" or "higher"; `bound` is the share of the base
    median by which the metric may worsen (None for per-layer metrics).

    - improved: at least MIN_PAIRS pairs, the new side wins at least
      9/10 of them (ties count for neither) and the medians differ, in
      the better direction, by more than the base's interquartile
      distance;
    - worse: the new median is worse than the base median by more than
      the bound; without a bound, the improved rule in the other
      direction;
    - within-bound: neither, and the base's spread is within the bound;
    - unresolved: anything else (the spread is wider than the bound, or
      there is no bound) -- not evidence of no change.

    Returns (verdict, pairs won by new, pairs compared)."""
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if sign * (n - b) > 0)
    lost = sum(1 for b, n in pairs if sign * (n - b) < 0)
    bq1, bmed, bq3 = quartiles(base)
    nmed = statistics.median(new)
    iqr = bq3 - bq1
    gain = sign * (nmed - bmed)
    enough = len(pairs) >= MIN_PAIRS
    if enough and won >= 0.9 * len(pairs) and gain > iqr:
        return "improved", won, len(pairs)
    if bound is not None:
        if -gain > bound * abs(bmed):
            return "worse", won, len(pairs)
        if iqr <= bound * abs(bmed):
            return "within-bound", won, len(pairs)
        return "unresolved", won, len(pairs)
    if enough and lost >= 0.9 * len(pairs) and -gain > iqr:
        return "worse", won, len(pairs)
    return "unresolved", won, len(pairs)
