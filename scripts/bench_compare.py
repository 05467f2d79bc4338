#!/usr/bin/env python3
"""Compare bench shape rows against a committed baseline.

Usage:
    bench_compare.py --compare BASELINE CURRENT [--compare ...]
                     [--threshold 2.0] [--report PATH]

Each ``--compare`` pair names two bench JSON files produced by the same
harness (``BENCH_dispatch.json`` from e9, ``BENCH_federation.json`` from
e10, ``BENCH_mobility.json`` from e11). Rows are matched by their
identity keys and every latency metric is reported as a ratio
``current / baseline``.

Only the **gated** metrics fail the run. A metric's gate value in
``SCHEMAS`` is ``False`` (informational), ``True`` (gated at the global
``--threshold``, default 2.0x), a float (gated at that per-metric
ratio, overriding the global threshold), or a dict
``{"gate": <float>, "higher_is_better": True}`` for throughput
metrics, where a regression is a *drop*: the run fails when
``current/baseline < 1/limit`` instead of ``> limit``. Gated today:
the indexed-dispatch latency of e9 (``indexed_us`` at the global
threshold, on its ``publish`` and ``composed`` row groups alike), the
federation phase timings of e10 (``barrier_us`` / ``relay_us`` at
3.0x — noisier multi-thread paths get the wider band), e10's streaming throughput (``sustained_kevents_s``, direction-aware
at 3.0x), and e11's mobility row (``handoff_p99_us`` at 3.0x plus its
own direction-aware ``sustained_kevents_s``). Everything else — the
linear oracle, resolver plans, serial sweeps, footprint figures — is
informational: those rows track an unpinned-machine trajectory and a
hard gate on them would flake.

Exit status: 0 when no gated metric regressed, 1 otherwise, 2 on bad
input. A markdown report is always written when ``--report`` is given
(and uploaded as a CI artifact either way), so a red run still ships
the numbers that killed it.

Stdlib only — no third-party imports; CI runs this on a bare runner.
"""

from __future__ import annotations

import argparse
import json
import sys

# Per-experiment row schema: identity key fields and a gate per
# metric — False: informational; True: gated at --threshold; float:
# gated at that per-metric ratio.
SCHEMAS = {
    "e9_dispatch": {
        # `subjects` appears on `composed` rows only.
        "key": ("group", "subjects", "total_subs", "distractors"),
        "metrics": {
            # The regression gate, on both row groups: mixed tables
            # (`publish`) and the Figure-3 shared-source shape
            # (`composed`), where a lost pair key shows as a cost
            # linear in subjects.
            "indexed_us": True,
            "linear_us": False,
            "plan_us": False,
        },
    },
    "e10_federation_parallel": {
        "key": ("group", "ranges"),
        "metrics": {
            "serial_us": False,
            "parallel_us": False,
            "stream_us": False,
            "cast_us": False,
            "pump_us": False,
            # Backpressure watermark: diagnostic for cast_us spikes
            # (see EXPERIMENTS.md §E10), never a gate.
            "mailbox_highwater": False,
            "barrier_us": 3.0,  # multi-thread sync: wider band
            "relay_us": 3.0,  # cross-range relay: wider band
            # Streaming throughput: a regression is a *drop*, so the
            # gate is direction-aware (fails when ratio < 1/3.0).
            "sustained_kevents_s": {"gate": 3.0, "higher_is_better": True},
        },
    },
    "e12_durability": {
        "key": ("group", "mode"),
        "metrics": {
            # Streaming-ingest cost with the WAL attached — the
            # durability tax. Gated wide (3.0x): fsync latency belongs
            # to the runner's disk, not the code under test.
            "ingest_us": 3.0,
            "sustained_kevents_s": {"gate": 3.0, "higher_is_better": True},
            # Overhead vs the WAL-off row of the *same run* — already a
            # ratio, so machine-independent but fsync-noisy: recorded,
            # not gated.
            "overhead_pct": False,
            "wal_bytes": False,
            # Recovery trajectory (snapshot restore + replay):
            # informational in this first PR, gate once a trend exists.
            "recover_us": False,
            "replayed": False,
        },
    },
    "e13_network": {
        "key": ("group", "mode"),
        "metrics": {
            # One-event relay round trip per transport. The tcp row
            # includes a kernel round trip and the delivery ack, so it
            # gets the wide multi-thread band; latency up is bad.
            "rtt_us": 3.0,
            # Streamed relay throughput per transport — direction-aware
            # like every other streaming gate: a regression is a drop.
            "sustained_kevents_s": {"gate": 3.0, "higher_is_better": True},
            # sim/tcp ratio rows: the gap between a function call and a
            # socket is a property of the host, never a gate.
            "ratio": False,
        },
    },
    "e11_mobility": {
        "key": ("group", "ranges", "entities_per_range"),
        "metrics": {
            "handoff_p50_us": False,
            # The tail of a complete entity handoff (package, relay,
            # replay) is what city-scale mobility lives or dies on.
            "handoff_p99_us": 3.0,
            # Ingest throughput while the churn is running — gated
            # direction-aware like e10's streaming rate.
            "sustained_kevents_s": {"gate": 3.0, "higher_is_better": True},
            # RSS-derived and allocator-dependent: informational.
            "bytes_per_entity": False,
            "deliveries": False,
        },
    },
}


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if "experiment" not in doc or "rows" not in doc:
        sys.exit(f"bench_compare: {path} is not a bench shape file")
    return doc


def row_key(row, key_fields):
    return tuple((f, row[f]) for f in key_fields if f in row)


def fmt_key(key):
    return " ".join(f"{f}={v}" for f, v in key)


def compare_pair(baseline_path, current_path, threshold, lines):
    """Appends report lines for one file pair; returns gated failures."""
    base = load(baseline_path)
    cur = load(current_path)
    if base["experiment"] != cur["experiment"]:
        sys.exit(
            f"bench_compare: experiment mismatch: {baseline_path} is "
            f"{base['experiment']!r}, {current_path} is {cur['experiment']!r}"
        )
    schema = SCHEMAS.get(base["experiment"])
    if schema is None:
        sys.exit(f"bench_compare: unknown experiment {base['experiment']!r}")

    base_rows = {row_key(r, schema["key"]): r for r in base["rows"]}
    failures = []
    lines.append(f"## {base['experiment']} — `{current_path}` vs `{baseline_path}`")
    lines.append("")
    lines.append("| row | metric | baseline | current | ratio | gate |")
    lines.append("|-----|--------|---------:|--------:|------:|------|")
    for row in cur["rows"]:
        key = row_key(row, schema["key"])
        ref = base_rows.get(key)
        for metric, gate in schema["metrics"].items():
            if metric not in row:
                continue
            now = float(row[metric])
            if ref is None or metric not in ref:
                lines.append(
                    f"| {fmt_key(key)} | {metric} | — | {now:.3f} | — | new row |"
                )
                continue
            then = float(ref[metric])
            ratio = now / then if then > 0 else float("inf")
            verdict = "info"
            if gate:
                higher_is_better = isinstance(gate, dict) and gate.get(
                    "higher_is_better", False
                )
                if isinstance(gate, dict):
                    limit = float(gate["gate"])
                else:
                    # bool is not a float subclass, so True keeps the
                    # global threshold and 3.0 overrides it.
                    limit = gate if isinstance(gate, float) else threshold
                if higher_is_better:
                    # Throughput metric: regression = a drop below
                    # baseline/limit, not a time increase.
                    failed = ratio < 1.0 / limit
                    bound = f"{1.0 / limit:.2f}x floor"
                else:
                    failed = ratio > limit
                    bound = f"{limit:.1f}x ceiling"
                verdict = "**FAIL**" if failed else "ok"
                if failed:
                    failures.append(
                        f"{base['experiment']}: {fmt_key(key)} {metric} "
                        f"{then:.3f} -> {now:.3f} ({ratio:.2f}x vs {bound})"
                    )
            lines.append(
                f"| {fmt_key(key)} | {metric} | {then:.3f} | {now:.3f} "
                f"| {ratio:.2f}x | {verdict} |"
            )
    lines.append("")
    return failures


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--compare",
        nargs=2,
        action="append",
        metavar=("BASELINE", "CURRENT"),
        required=True,
        help="baseline and freshly-generated bench JSON (repeatable)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="max allowed current/baseline ratio on gated metrics (default 2.0)",
    )
    ap.add_argument("--report", help="write a markdown report to this path")
    args = ap.parse_args(argv)

    lines = ["# Bench regression report", ""]
    failures = []
    for baseline_path, current_path in args.compare:
        failures += compare_pair(baseline_path, current_path, args.threshold, lines)

    if failures:
        lines.append(f"**{len(failures)} gated regression(s):**")
        lines.extend(f"- {f}" for f in failures)
    else:
        lines.append("**All gated metrics within threshold.**")
    report = "\n".join(lines) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(report)
    print(report)
    if failures:
        print("bench_compare: FAIL", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
