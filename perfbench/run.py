"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fog-paper --seed 1 --seconds 25 --trace 0

Each timed repeat runs in a fresh worker process (``worker.py``), so
peak RSS is per repeat; repeats continue until ``--seconds`` would be
exceeded, with at least three.  ``--trace 0`` prints the end-to-end
metrics named in ``BENCHMARK.json`` (medians over the repeats, plus the
simulated-fidelity figures, which are identical in every repeat).
``--trace 1`` runs three untraced repeats (the overhead baseline), then
one traced run, and prints the per-layer metrics.  Output checks run on
every execution; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 3
#: Every child must finish by then, so the whole run stays under 180 s.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args`` in a fresh process; parse its JSON."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"worker {args[:2]} ran past the deadline")
    if child.returncode != 0 or not stdout.strip():
        raise BenchmarkError(f"worker {args[:2]} failed "
                             f"(exit {child.returncode}):\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp_dir: Path) -> tuple[dict, dict, list[str], int]:
    """Run the repeats; return values, checks, notes and plans run."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    common = [workload, str(seed), str(tmp_dir)]
    timed = []
    while True:
        began = time.monotonic()
        timed.append(run_child(["timed", *common], deadline))
        took = time.monotonic() - began
        now = time.monotonic() - start
        if len(timed) >= MIN_REPEATS and (trace or now + took > seconds):
            break
        if now + 2 * took > DEADLINE_S:
            break
    executions = list(timed)
    checks = {"repeat_digests_equal":
              len({r["digest"] for r in timed}) == 1}
    notes = []
    if trace:
        spans = ROOT / ".perfbench_out" / f"trace-{workload}.jsonl"
        traced = run_child(["traced", *common, str(spans)], deadline)
        executions.append(traced)
        checks["traced_digest_equal"] = traced["digest"] == timed[0]["digest"]
        if traced["digests"]:
            checks["sharded_digest_equal"] = all(
                d == timed[0]["digest"] for d in traced["digests"])
        if traced["absent"]:
            notes.append("absent layers: " + ", ".join(traced["absent"]))
        values = dict(traced["layers"])
        untraced = traced["untraced_wall_s"] or statistics.median(
            r["wall_s"] for r in timed)
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_share"] = traced["wall_s"] / untraced - 1.0
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        if workload == "fog-sharded":
            reference = run_child(["reference", *common], deadline)
            executions.append(reference)
            checks["sharded_digest_equal"] = \
                reference["digest"] == timed[0]["digest"]
        values = dict(timed[0]["sim"])
        values["setup_s"] = statistics.median(
            s for r in timed for s in r["setup_samples"])
        for name in ("wall_s", "player_days_per_s", "peak_rss_mb"):
            values[name] = statistics.median(r[name] for r in timed)
        notes.append(f"{len(timed)} timed repeats")
    for execution in executions:
        for name, ok in execution["checks"].items():
            checks[name] = checks.get(name, True) and ok
    attempted = sum(e["plans"] for e in executions)
    return values, checks, notes, attempted


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are missing; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tmp_dir = ROOT / ".perfbench_tmp"
    tmp_dir.mkdir(exist_ok=True)
    try:
        values, checks, notes, attempted = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            tmp_dir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tmp_dir.is_dir() and not any(tmp_dir.iterdir()):
            tmp_dir.rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    correct = all(checks.values())
    for note in notes:
        print(f"# {note}")
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    for metric in wanted:
        direction = metric.get("better")
        suffix = f"  ({direction} is better)" if direction else ""
        print(f"{metric['name']:<40} {values[metric['name']]:>16.6g} "
              f"{metric['unit']}{suffix}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
