#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    compare.py --base out/a1.json [out/a2.json ...] --new out/b1.json [...]

Each file is what `run.sh` (`sci-benchmark all`) writes. For every
workload x end-to-end metric it prints one row:

    better        the change's median is better by more than the base's spread
    within-bound  no worse than the bound BENCHMARK.json fixes for the metric
    worse         worse by more than the bound
    unresolved    the base's own run-to-run spread (interquartile range over
                  median, needs >= 4 base files) is wider than the bound, and
                  the two sides' runs overlap

and exits 1 if any row is `worse` or any workload's failed_share went up.
With one file a side there is no spread to judge by, so a row can only be
better (by more than a third of the bound), within-bound or worse.
`--layers` also lists the per-layer metrics that moved by more than 10 %,
for orientation only: they have no bounds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths):
    """{(workload, trace): {"metrics": {name: [values]}, "failed_share": [..]}}"""
    table = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc.get("quick"):
            print(f"warning: {path} is a --quick run; its numbers are smoke, not measurements")
        for run in doc["runs"]:
            slot = table.setdefault((run["workload"], run["trace"]), {"metrics": {}, "failed_share": []})
            result = run["result"]
            slot["failed_share"].append(result["failed"] / max(result["attempted"], 1))
            for name, m in result["metrics"].items():
                slot["metrics"].setdefault(name, []).append(m["value"])
    return table


def spread(values):
    """Interquartile range over median; None with fewer than four values."""
    if len(values) < 4:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return abs((q3 - q1) / q2) if q2 else None


def verdict(base, new, better, bound):
    """(verdict, signed relative change: positive is worse, base spread)."""
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    s = spread(base)
    worse_than = (lambda a, b: a > b) if better == "lower" else (lambda a, b: a < b)
    if s is not None and s > bound:
        if all(worse_than(n, b) for n in new for b in base):
            return "worse", change, s
        if all(worse_than(b, n) for n in new for b in base):
            return "better", change, s
        return "unresolved", change, s
    if change > bound:
        return "worse", change, s
    if change < -(s if s is not None else bound / 3):
        return "better", change, s
    return "within-bound", change, s


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True, help="results of the parent commit")
    parser.add_argument("--new", nargs="+", required=True, help="results of the change")
    parser.add_argument("--layers", action="store_true", help="also list per-layer metrics that moved")
    parser.add_argument(
        "--contract",
        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"),
        help="BENCHMARK.json holding bounds and directions",
    )
    args = parser.parse_args()

    contract = json.loads(Path(args.contract).read_text())
    base, new = load(args.base), load(args.new)
    failed = False

    print(f"{'workload':20s} {'metric':20s} {'base':>14s} {'new':>14s} {'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in contract["workloads"]]:
        b, n = base.get((workload, 0)), new.get((workload, 0))
        if b is None or n is None:
            print(f"{workload:20s} missing from one side")
            failed = True
            continue
        for m in contract["end_to_end"]:
            name = m["name"]
            v, change, s = verdict(b["metrics"][name], n["metrics"][name], m["better"], m["bound"])
            failed |= v == "worse"
            print(
                f"{workload:20s} {name:20s} {statistics.median(b['metrics'][name]):14.5g} "
                f"{statistics.median(n['metrics'][name]):14.5g} {change:+8.1%} "
                f"{'-' if s is None else format(s, '7.1%'):>7s} {m['bound']:6.0%}  {v}"
            )
        fb, fn = max(b["failed_share"]), max(n["failed_share"])
        v = "worse" if fn > fb else "within-bound"
        failed |= fn > fb
        print(f"{workload:20s} {'failed_share':20s} {fb:14.5g} {fn:14.5g} {'':8s} {'':7s} {'0':>6s}  {v}")

    if args.layers:
        print("\nper-layer metrics that moved by more than 10 % (no bounds; orientation only)")
        for workload in [w["name"] for w in contract["workloads"]]:
            b, n = base.get((workload, 1)), new.get((workload, 1))
            if b is None or n is None:
                continue
            for m in contract["per_layer"]:
                name = m["name"]
                mb, mn = statistics.median(b["metrics"][name]), statistics.median(n["metrics"][name])
                if mb != mn and (mb == 0 or abs(mn - mb) / abs(mb) > 0.10):
                    print(f"{workload:20s} {name:40s} {mb:14.5g} -> {mn:14.5g} {m['unit']}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
