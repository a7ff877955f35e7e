#!/usr/bin/env python3
"""Compares two sets of csq_bench reports, metric by metric, within each
metric's bound (the bounds of the end-to-end metrics are BENCHMARK.json's).

    python3 csq_bench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Each file is a merged BENCH_csq_bench.json (run.py without --workload) or one
workload's BENCH_csq_bench_<workload>.json. Runs pair up by position, base[i]
with change[i]: produce the two sets alternately, so that each pair ran under
the same host load. Each (workload, metric) gets one verdict:

  improved    the change wins at least 9/10 of the pairs and the medians differ
              by more than the base's interquartile range
  regressed   the median of the pairs' relative differences is worse than the bound
  unresolved  those relative differences spread wider (IQR) than the bound
  unchanged   otherwise

Pairing makes host drift cancel: a host that slows down between pairs moves
both sides alike. `sim` metrics are deterministic for a seed, so they compare
exactly, pair by pair. Any rise in error_rate is a regression. Exits 1 if any
verdict is regressed or unresolved.
"""

import argparse
import json
import statistics
import sys

IMPROVED, REGRESSED, UNRESOLVED, UNCHANGED = "improved", "regressed", "unresolved", "unchanged"


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def wins(base, change, better):
    """Pairs in which the change reads better; ties count for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)


def host_verdict(base, change, better, bound):
    sign = 1 if better == "lower" else -1
    q1, mb, q3 = quartiles(base)
    gain = sign * (mb - quartiles(change)[1])  # > 0 when the change is better
    if wins(base, change, better) >= 0.9 * len(base) and gain > q3 - q1:
        return IMPROVED
    worse = [sign * (c - b) / abs(b) for b, c in zip(base, change) if b]
    if not worse:
        return UNCHANGED
    w1, wm, w3 = quartiles(worse)
    if wm > bound:
        return REGRESSED
    if w3 - w1 > bound and not all(sign * (c - b) < 0 for b in base for c in change):
        return UNRESOLVED
    return UNCHANGED


def sim_verdict(base, change, better):
    sign = 1 if better == "lower" else -1
    diffs = [sign * (c - b) for b, c in zip(base, change)]
    if any(d > 0 for d in diffs):
        return REGRESSED
    if any(d < 0 for d in diffs):
        return IMPROVED
    return UNCHANGED


def error_verdict(base, change):
    return REGRESSED if max(change) > max(base) else UNCHANGED


def load(path):
    """{workload: report} from a merged or a single-workload report."""
    with open(path) as f:
        doc = json.load(f)
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: doc}


def compare(base_docs, change_docs):
    """Rows of (workload, metric, better, base values, change values, verdict)
    for error_rate and every metric that declares a bound."""
    rows = []
    workloads = sorted(set.intersection(*(set(d) for d in base_docs + change_docs)))
    for w in workloads:
        base = [d[w] for d in base_docs]
        change = [d[w] for d in change_docs]
        be = [r["error_rate"] for r in base]
        ce = [r["error_rate"] for r in change]
        rows.append((w, "error_rate", "lower", be, ce, error_verdict(be, ce)))
        for name, meta in base[0]["metrics"].items():
            if not meta["bound"]:
                continue
            bv = [r["metrics"][name]["value"] for r in base]
            cv = [r["metrics"][name]["value"] for r in change]
            if meta["class"] == "sim":
                verdict = sim_verdict(bv, cv, meta["better"])
            else:
                verdict = host_verdict(bv, cv, meta["better"], meta["bound"])
            rows.append((w, name, meta["better"], bv, cv, verdict))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    if len(args.base) != len(args.change):
        ap.error("--base and --change need the same number of runs (they pair up)")
    rows = compare([load(p) for p in args.base], [load(p) for p in args.change])

    def fmt(xs):
        q1, med, q3 = quartiles(xs)
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"

    print(f"{'workload':14} {'metric':22} {'base median [q1, q3]':38} "
          f"{'change median [q1, q3]':38} {'wins':>6}  verdict")
    for w, name, better, bv, cv, verdict in rows:
        print(f"{w:14} {name:22} {fmt(bv):38} {fmt(cv):38} "
              f"{wins(bv, cv, better):>3}/{len(bv):<2}  {verdict}")
    bad = [r for r in rows if r[5] in (REGRESSED, UNRESOLVED)]
    print(f"{len(rows)} comparisons, {len(bad)} regressed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
