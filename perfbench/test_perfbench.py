#!/usr/bin/env python3
"""Self-checks for the benchmark's own arithmetic (stdlib unittest).

  python3 perfbench/test_perfbench.py

Pins the percentile and quartile picks, span self time on a hand-made
Chrome trace with nested and overlapping children, and the comparison
verdicts on fixed inputs.
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import pbstats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        values = list(range(1, 11))  # 1..10
        self.assertAlmostEqual(pbstats.percentile(values, 90), 9.1)
        self.assertAlmostEqual(pbstats.percentile(values, 50), statistics.median(values))
        self.assertAlmostEqual(pbstats.percentile(reversed(values), 10), 1.9)

    def test_single_value(self):
        self.assertEqual(pbstats.percentile([4.0], 90), 4.0)
        self.assertEqual(pbstats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(pbstats.spread([4.0]), 0.0)

    def test_quartiles_match_acceptance_picks(self):
        # statistics.quantiles(n=4), 'exclusive': positions (n+1)p.
        q1, q2, q3 = pbstats.quartiles([1, 2, 3, 4, 5, 6, 7, 8])
        self.assertAlmostEqual(q1, 2.25)
        self.assertAlmostEqual(q2, 4.5)
        self.assertAlmostEqual(q3, 6.75)
        self.assertAlmostEqual(pbstats.spread([1, 2, 3, 4, 5, 6, 7, 8]), 4.5 / 4.5)

    def test_p90_has_ten_samples_beyond_at_100(self):
        values = list(range(100))
        p90 = pbstats.percentile(values, 90)
        self.assertEqual(sum(1 for v in values if v > p90), 10)


def x_event(name, tid, ts_us, dur_us):
    return {"name": name, "cat": "hebs", "ph": "X", "pid": 1, "tid": tid,
            "ts": ts_us, "dur": dur_us, "args": {"arg": 0}}


class SpanSelfTime(unittest.TestCase):
    def trace_file(self, events):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
        self.addCleanup(os.remove, path)
        return path

    def test_nested_and_overlapping_children(self):
        path = self.trace_file([
            x_event("frame", 1, 0.0, 100.0),
            x_event("a", 1, 10.0, 40.0),      # [10, 50]
            x_event("a1", 1, 20.0, 10.0),     # [20, 30] inside a
            x_event("b", 1, 40.0, 40.0),      # [40, 80] overlaps a's end
            x_event("c", 1, 60.0, 10.0),      # [60, 70] inside b
            x_event("frame", 2, 0.0, 50.0),   # equal intervals on tid 2:
            x_event("d", 2, 0.0, 50.0),       # the first listed is parent
            {"name": "meta", "ph": "M", "pid": 1, "tid": 1},
        ])
        events = pbstats.load_trace(path)
        self.assertEqual(len(events), 7)  # the metadata event is skipped
        nodes = pbstats.span_self_times(events)
        self_us = {(n["name"], n["tid"]): n["self"] / 1000.0 for n in nodes}
        self.assertAlmostEqual(self_us[("a1", 1)], 10.0)
        self.assertAlmostEqual(self_us[("a", 1)], 30.0)
        self.assertAlmostEqual(self_us[("b", 1)], 30.0)  # parent is frame, not a
        self.assertAlmostEqual(self_us[("c", 1)], 10.0)
        self.assertAlmostEqual(self_us[("frame", 1)], 30.0)  # 100 - |[10, 80]|
        self.assertAlmostEqual(self_us[("frame", 2)], 0.0)
        self.assertAlmostEqual(self_us[("d", 2)], 50.0)
        parents = {n["name"]: n["parent"] for n in nodes if n["tid"] == 1}
        self.assertEqual(nodes[parents["b"]]["name"], "frame")
        self.assertEqual(nodes[parents["c"]]["name"], "b")

        spans = pbstats.span_breakdown(events, frames=2, call_ns=10**9)
        self.assertAlmostEqual(spans["frame_ms_per_frame"], 0.150 / 2)
        self.assertAlmostEqual(spans["unattributed_ratio"], 30.0 / 150.0)
        self.assertAlmostEqual(spans["self_share"]["a"], 30.0 / 150.0)
        self.assertAlmostEqual(spans["self_ms_per_frame"]["b"], 0.030 / 2)
        self.assertAlmostEqual(spans["count_per_frame"]["frame"], 1.0)

    def test_without_frame_spans_the_call_is_the_root(self):
        events = [("range-search", 1, 0, 6000), ("range-probe", 1, 1000, 2000),
                  ("lut-apply", 1, 7000, 1000), ("histogram", 1, 9000, 0)]
        spans = pbstats.span_breakdown(events, frames=1, call_ns=10000)
        self.assertAlmostEqual(spans["frame_ms_per_frame"], 0.010)
        # 10 µs of calls, 7 µs under top-level spans.
        self.assertAlmostEqual(spans["unattributed_ratio"], 0.3)
        self.assertAlmostEqual(spans["self_share"]["range-search"], 0.4)
        self.assertAlmostEqual(spans["self_share"]["histogram"], 0.0)


class Verdicts(unittest.TestCase):
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_improved_needs_nine_of_ten_and_more_than_iqr(self):
        new = [v * 0.8 for v in self.base]
        self.assertEqual(pbstats.verdict(self.base, new, "lower", 0.1), ("improved", 10, 10))
        # Nine wins of ten still qualify ...
        new9 = new[:9] + [self.base[9] + 1.0]
        self.assertEqual(pbstats.verdict(self.base, new9, "lower", 0.1)[0], "improved")
        # ... eight do not.
        new8 = new[:8] + [b + 1.0 for b in self.base[8:]]
        self.assertNotEqual(pbstats.verdict(self.base, new8, "lower", 0.1)[0], "improved")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(pbstats.verdict(self.base, list(self.base), "lower", 0.1),
                         ("within-bound", 0, 10))

    def test_worse_past_the_bound(self):
        new = [v * 1.3 for v in self.base]
        self.assertEqual(pbstats.verdict(self.base, new, "lower", 0.1)[0], "worse")
        self.assertEqual(pbstats.verdict(self.base, new, "higher", 0.1)[0], "improved")
        slower = [v * 0.7 for v in self.base]
        self.assertEqual(pbstats.verdict(self.base, slower, "higher", 0.1)[0], "worse")

    def test_small_change_within_bound(self):
        new = [v * 1.02 for v in self.base]
        self.assertEqual(pbstats.verdict(self.base, new, "lower", 0.1)[0], "within-bound")

    def test_wide_spread_is_unresolved(self):
        wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        new = [v * 1.05 for v in wide]
        self.assertEqual(pbstats.verdict(wide, new, "lower", 0.1)[0], "unresolved")

    def test_per_layer_without_bound(self):
        counts = [3.0] * 10
        self.assertEqual(pbstats.verdict(counts, [2.5] * 10, "lower")[0], "improved")
        self.assertEqual(pbstats.verdict(counts, [3.5] * 10, "lower")[0], "worse")
        self.assertEqual(pbstats.verdict(counts, [3.0] * 10, "lower")[0], "unresolved")
        # One run per side, as the traced runs of `run.py --all` give.
        self.assertEqual(pbstats.verdict([3.0], [2.5], "lower")[0], "unresolved")
        self.assertEqual(pbstats.verdict([3.0], [3.5], "lower")[0], "unresolved")

    def test_compare_pairs_by_seed(self):
        def rec(seed, value):
            return {"workload": "w", "seed": seed, "metrics": {"fps": {"value": value}}}
        base = [rec(s, 100.0 + s) for s in range(1, 11)]
        new = [rec(s, 130.0 + s) for s in reversed(range(1, 11))]
        rows = compare.compare(base, new, {"fps": ("higher", 0.1)})
        self.assertEqual(len(rows), 1)
        workload, name, bv, nv, (v, won, pairs), bound = rows[0]
        self.assertEqual((v, won, pairs, bound), ("improved", 10, 10, 0.1))
        self.assertEqual([n - b for b, n in zip(bv, nv)], [30.0] * 10)


if __name__ == "__main__":
    unittest.main()
