#!/usr/bin/env python3
"""Compares two sets of servebench runs against BENCHMARK.json's bounds.

  python3 servebench/compare.py A/ B/      # A = parent commit, B = change
  python3 servebench/compare.py A/ A/      # one set: its spreads
  python3 servebench/compare.py --self-test

Each directory holds the untraced result records run.py writes
(<workload>-seed<n>-trace0.json), one per run. For every workload and
end-to-end metric it prints each side's median, quartiles
(statistics.quantiles, n=4) and spread (quartile distance over median),
and a verdict:

  worse       B's median is worse than A's by more than the bound;
  better      B wins at least 9 of 10 runs paired by seed, and the medians
              differ by more than A's quartile distance;
  unresolved  A's spread exceeds the bound and the runs do not separate
              completely;
  same        otherwise.

The whole-window statistics (the window.* metrics of BENCHMARK.json's
per-layer list, which untraced runs record as diagnostics) follow with no
bound and no verdict. The exit code is 1 when any pair reads worse.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_metrics():
    """Gated end-to-end metrics, then the ungated whole-window ones."""
    with open(BENCHMARK) as f:
        spec = json.load(f)
    window = [dict(m, bound=None) for m in spec["per_layer"]
              if m["name"].startswith("window.")]
    return spec["end_to_end"] + window


def load_runs(directory):
    """{workload: {seed: metrics}} from the untraced records in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                rec = json.load(f)
            except ValueError:
                continue
        if not isinstance(rec, dict) or rec.get("trace", 1) != 0:
            continue
        metrics = dict(rec["metrics"])
        metrics.update(rec.get("diagnostics", {}).get("window", {}))
        runs.setdefault(rec["workload"], {})[rec["seed"]] = metrics
    return runs


def summary(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(a, b, better, bound):
    """Verdict for one (workload, metric) pair; a and b are {seed: value}."""
    if bound is None:
        return "ungated"
    a_vals, b_vals = list(a.values()), list(b.values())
    a_med, a_q1, a_q3, a_spread = summary(a_vals)
    b_med = statistics.median(b_vals)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    separated = (max(b_vals) < min(a_vals) if better == "lower"
                 else min(b_vals) > max(a_vals))
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    if worse_by > bound:
        return "worse"
    if separated or (seeds and wins >= 0.9 * len(seeds) and
                     abs(b_med - a_med) > a_q3 - a_q1):
        return "better"
    if a_spread > bound:
        return "unresolved"
    return "same"


def compare(a_runs, b_runs, metrics, out=sys.stdout):
    """Prints the comparison table; returns {(workload, metric): verdict}."""
    verdicts = {}
    fmt = "%-17s %-23s %10s %19s %7s %10s %19s %7s %7s %5s  %s"
    print(fmt % ("workload", "metric", "A median", "A q1-q3", "A sprd",
                 "B median", "B q1-q3", "B sprd", "delta", "bound",
                 "verdict"), file=out)
    for workload in sorted(set(a_runs) | set(b_runs)):
        for m in metrics:
            name = m["name"]
            a = {s: r[name]["value"] for s, r in a_runs.get(workload, {}).items()
                 if name in r}
            b = {s: r[name]["value"] for s, r in b_runs.get(workload, {}).items()
                 if name in r}
            if not a or not b:
                verdicts[(workload, name)] = "missing"
                print("%-17s %-23s missing runs (A %d, B %d)"
                      % (workload, name, len(a), len(b)), file=out)
                continue
            a_med, a_q1, a_q3, a_spread = summary(list(a.values()))
            b_med, b_q1, b_q3, b_spread = summary(list(b.values()))
            v = verdict(a, b, m["better"], m["bound"])
            verdicts[(workload, name)] = v
            delta = (b_med - a_med) / abs(a_med) if a_med else 0.0
            print(fmt % (workload, name, "%.4g" % a_med,
                         "%.4g-%.4g" % (a_q1, a_q3),
                         "%.1f%%" % (100 * a_spread), "%.4g" % b_med,
                         "%.4g-%.4g" % (b_q1, b_q3),
                         "%.1f%%" % (100 * b_spread),
                         "%+.1f%%" % (100 * delta),
                         "-" if m["bound"] is None else "%g" % m["bound"], v),
                  file=out)
    return verdicts


def self_test():
    """Checks the verdict rules on canned runs."""
    import io
    metrics = [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
               {"name": "rps", "unit": "1/s", "better": "higher",
                "bound": 0.1},
               {"name": "tail", "unit": "ms", "better": "lower",
                "bound": None}]

    def runs(lat, rps):
        return {"w": {s: {"lat": {"value": x, "unit": "ms"},
                          "rps": {"value": y, "unit": "1/s"},
                          "tail": {"value": 3 * x, "unit": "ms"}}
                      for s, (x, y) in enumerate(zip(lat, rps))}}

    steady = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.05, 9.95, 10.1, 9.9]
    cases = [
        # Same code twice: every pair within its bound.
        (runs(steady, steady), runs(steady[::-1], steady[::-1]),
         {"lat": "same", "rps": "same", "tail": "ungated"}),
        # 20% slower, 20% less throughput: both worse; no bound, no verdict.
        (runs(steady, steady), runs([x * 1.2 for x in steady],
                                    [x * 0.8 for x in steady]),
         {"lat": "worse", "rps": "worse", "tail": "ungated"}),
        # 5% faster in every run: better, though within the bound.
        (runs(steady, steady), runs([x * 0.95 for x in steady],
                                    [x * 1.05 for x in steady]),
         {"lat": "better", "rps": "better"}),
        # A spreads wider than the bound and the sets overlap: unresolved.
        (runs([5, 15, 8, 12, 10, 6, 14, 9, 11, 10], steady),
         runs([6, 14, 9, 11, 10, 5, 15, 8, 12, 10.5], steady),
         {"lat": "unresolved", "rps": "same"}),
    ]
    failures = 0
    for i, (a, b, want) in enumerate(cases):
        got = compare(a, b, metrics, out=io.StringIO())
        for name, v in want.items():
            if got[("w", name)] != v:
                failures += 1
                print("case %d %s: want %s, got %s"
                      % (i, name, v, got[("w", name)]))
    print("self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="*", metavar="DIR")
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()
    if opts.self_test:
        return self_test()
    if len(opts.dirs) != 2:
        ap.error("give two directories, A (parent) and B (change)")
    verdicts = compare(load_runs(opts.dirs[0]), load_runs(opts.dirs[1]),
                       load_metrics())
    return 1 if "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
