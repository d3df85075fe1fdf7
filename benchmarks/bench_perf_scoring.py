"""Performance benchmark for the scoring hot path and a whole run.

Measures three things and writes them to ``BENCH_perf.json``:

* **Session scoring** — :func:`repro.core.scoring.score_sessions_batch`
  on one day's sessions, in sessions/second.
* **End to end** — a fixed CloudFog/A run (construction excluded), in
  player-days/second.
* **Sweep wall-clock** — a multi-variant comparison sweep run
  sequentially vs with ``--jobs`` worker processes.

Scoring and end-to-end figures are medians over nine runs, each
bracketed by :func:`bench_lifecycle.calibration_rate` (a fixed
interpreter + small-numpy loop; :func:`bench_lifecycle.calibrated_rates`
does the bracketing).  ``calibrated_rate`` divides each run's rate by
that loop's rate, so the figure compares across machines;
``scoring.calibrated_rate`` and ``end_to_end.calibrated_rate`` are the
CI trend gate (``tools/bench_trend.py --key ...``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_scoring.py
    PYTHONPATH=src python benchmarks/bench_perf_scoring.py --tiny
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.core import scoring, sweep
from repro.core.accounting import RunResult
from repro.core.config import cloudfog_advanced, cloudfog_basic
from repro.core.system import CloudFogSystem
from repro.experiments.parallel import VariantTask, run_variants
from repro.experiments.testbeds import Testbed

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_lifecycle import calibrated_rates  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Calibrated runs per figure; the reported values are their medians.
REPEATS = 9


def _build_scored_day(num_players: int, num_supernodes: int, seed: int):
    """A system with one swept day's sessions and load timelines."""
    config = cloudfog_basic(num_players=num_players,
                            num_supernodes=num_supernodes, seed=seed)
    system = CloudFogSystem(config)
    state = system.state
    plans = sweep.sample_plans(state, state.rng_factory.stream("plans-0"),
                               day=0)
    sweep.choose_games(state, plans, state.rng_factory.stream("games-0"))
    sessions, loads, cloud_rate = sweep.sweep_day(
        state, plans, state.rng_factory.stream("selection-0"), RunResult(),
        measuring=False)
    return system, sessions, loads, cloud_rate


def bench_scoring(num_players: int, num_supernodes: int, seed: int,
                  calls: int) -> dict:
    system, sessions, loads, cloud_rate = _build_scored_day(
        num_players, num_supernodes, seed)
    n = len(sessions)

    def measure() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            scoring.score_sessions_batch(
                system.state, 0, sessions, loads, cloud_rate,
                system.rng_factory.stream("qos-0"))
        return n * calls / (time.perf_counter() - t0)

    figures = calibrated_rates(measure, REPEATS)
    return {"sessions": n, "calls": calls,
            "sessions_per_s": figures.pop("rate_per_s"), **figures}


def bench_end_to_end(num_players: int, num_supernodes: int, days: int,
                     seed: int) -> dict:
    config = cloudfog_advanced(num_players=num_players,
                               num_supernodes=num_supernodes, seed=seed)

    def measure() -> float:
        system = CloudFogSystem(config)  # construction is not timed
        t0 = time.perf_counter()
        system.run(days=days)
        return num_players * days / (time.perf_counter() - t0)

    figures = calibrated_rates(measure, REPEATS)
    return {"players": num_players, "days": days,
            "player_days_per_s": figures.pop("rate_per_s"), **figures}


def bench_sweep(num_players: int, seed: int, days: int, jobs: int) -> dict:
    testbed = Testbed(name="bench", num_players=num_players,
                      num_datacenters=3,
                      num_supernodes=max(4, int(num_players * 0.06)),
                      supernode_capable_share=0.5, jitter_fraction=0.15)
    tasks = [VariantTask(variant=v, testbed=testbed, seed=seed, days=days)
             for v in ("Cloud", "CDN", "CloudFog/B", "CloudFog/A")]
    t0 = time.perf_counter()
    sequential = run_variants(tasks, jobs=1)
    sequential_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_variants(tasks, jobs=jobs)
    parallel_s = time.perf_counter() - t0
    assert [r.days for r in sequential] == [r.days for r in parallel], \
        "parallel sweep diverged from sequential"
    return {
        "tasks": len(tasks),
        "jobs": jobs,
        "sequential_s": sequential_s,
        "parallel_s": parallel_s,
        "speedup": sequential_s / parallel_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark scoring, a whole run and the sweep.")
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized workload (seconds, not minutes)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the sweep benchmark")
    parser.add_argument("--output", default=None,
                        help="output path (default "
                             "benchmarks/results/BENCH_perf.json)")
    args = parser.parse_args(argv)

    if args.tiny:
        players, supernodes, calls, days = 400, 24, 20, 2
    else:
        players, supernodes, calls, days = 2000, 120, 10, 3

    results = {
        "workload": {"players": players, "supernodes": supernodes,
                     "tiny": args.tiny, "cpu_count": os.cpu_count()},
        "scoring": bench_scoring(players, supernodes, seed=3, calls=calls),
        "end_to_end": bench_end_to_end(players, supernodes, days=days,
                                       seed=3),
        "sweep": bench_sweep(players, seed=3, days=days, jobs=args.jobs),
    }

    output = pathlib.Path(args.output) if args.output else \
        RESULTS_DIR / "BENCH_perf.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=2) + "\n")

    scoring_, end_to_end, sweep = (results["scoring"],
                                   results["end_to_end"], results["sweep"])
    print(f"scoring:    {scoring_['sessions_per_s']:,.0f} sessions/s, "
          f"{scoring_['calibrated_rate']:.4f} per calibration loop/s")
    print(f"end to end: {end_to_end['player_days_per_s']:,.0f} "
          f"player-days/s, {end_to_end['calibrated_rate']:.5f} per "
          f"calibration loop/s ({end_to_end['calibration_per_s']:,.0f}/s)")
    print(f"sweep:      {sweep['parallel_s']:.1f}s at --jobs "
          f"{sweep['jobs']} vs {sweep['sequential_s']:.1f}s sequential "
          f"({sweep['speedup']:.1f}x)")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
