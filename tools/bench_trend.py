#!/usr/bin/env python3
"""Diff a fresh benchmark snapshot against the committed baseline.

Stdlib-only CI gate for the in-repo perf trajectory: the committed
``benchmarks/results/BENCH_*.json`` snapshots record where performance
(and, for the full-scale bench, the paper's quality ratios) stood at the
last commit; this tool compares a freshly produced snapshot against them
and fails when any tracked higher-is-better metric regressed by more
than the threshold (default 20 %).

Tracked metrics are dotted paths into the JSON
(``scoring.calibrated_rate``).  By default every numeric leaf whose
name contains ``speedup`` is tracked; pass explicit ``--key`` paths to
add others (e.g. calibrated rates or the full-scale quality ratios) and
``--exclude`` to drop machine-bound ones (``sweep.speedup`` scales with
CI core count)::

    python tools/bench_trend.py \\
        --latest BENCH_perf.json \\
        --baseline benchmarks/results/BENCH_perf.json \\
        --key scoring.calibrated_rate --exclude sweep.speedup

Raw wall-clock seconds are deliberately never auto-tracked: they differ
across machines far more than the 20 % gate; ratios are comparable.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def numeric_leaves(payload, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to {dotted.path: float}."""
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(numeric_leaves(value, path))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        out[prefix] = float(payload)
    return out


def tracked_keys(baseline: dict[str, float], explicit: list[str],
                 excluded: list[str]) -> list[str]:
    keys = {path for path in baseline
            if "speedup" in path.rsplit(".", 1)[-1]}
    keys.update(explicit)
    keys.difference_update(excluded)
    return sorted(keys)


def compare(baseline: dict[str, float], latest: dict[str, float],
            keys: list[str], threshold: float) -> list[str]:
    """Return a list of failure messages (empty = pass), printing one
    status line per tracked key."""
    failures = []
    for key in keys:
        if key not in baseline:
            failures.append(f"{key}: not in the baseline snapshot")
            continue
        if key not in latest:
            failures.append(f"{key}: missing from the latest snapshot")
            continue
        base, now = baseline[key], latest[key]
        if base <= 0:
            change = float("nan")
            regressed = now < base
        else:
            change = (now - base) / base
            regressed = change < -threshold
        marker = "REGRESSED" if regressed else "ok"
        print(f"{key:<40} {base:>12.4f} -> {now:>12.4f} "
              f"({change:+.1%})  {marker}")
        if regressed:
            failures.append(
                f"{key} regressed {change:+.1%} "
                f"(baseline {base:.4f}, latest {now:.4f}, "
                f"threshold -{threshold:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on >threshold regressions vs a committed "
                    "benchmark snapshot.")
    parser.add_argument("--latest", required=True,
                        help="freshly generated snapshot JSON")
    parser.add_argument("--baseline", required=True,
                        help="committed snapshot JSON to compare against")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="tolerated fractional regression "
                             "(default 0.20)")
    parser.add_argument("--key", action="append", default=[],
                        dest="keys", metavar="DOTTED.PATH",
                        help="track this metric too (repeatable)")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="DOTTED.PATH",
                        help="drop this metric from tracking (repeatable)")
    args = parser.parse_args(argv)

    baseline = numeric_leaves(
        json.loads(pathlib.Path(args.baseline).read_text()))
    latest = numeric_leaves(
        json.loads(pathlib.Path(args.latest).read_text()))
    keys = tracked_keys(baseline, args.keys, args.exclude)
    if not keys:
        print("no tracked metrics found in the baseline", file=sys.stderr)
        return 2

    failures = compare(baseline, latest, keys, args.threshold)
    if failures:
        print("\nbench trend FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbench trend OK ({len(keys)} metrics within "
          f"{args.threshold:.0%} of the committed baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
