"""Lifecycle microbenchmark: join / depart / migrate throughput.

Exercises the three hot per-player lifecycle paths that DESIGN.md §15
moved onto columnar state, and writes ``BENCH_lifecycle.json``:

* **Joins** — the workload run through the full sweep with the
  arrivals stage timer-wrapped; ``joins_per_s`` is simulated joins over
  that stage's wall clock.  ``calibrated_rate`` divides each run's rate
  by a fixed calibration loop (interpreter + small numpy work, the
  arrivals stage's mix) timed just before and after it, so the figure
  compares across machines; it is the CI trend gate
  (``tools/bench_trend.py --key joins.calibrated_rate``).  Medians over
  nine runs at ``--tiny``; one run at paper scale, where each takes
  minutes.
* **Departures** — :func:`repro.core.sweep.stage_departures` draining
  a full session table: every row sits on a supernode, play windows
  end spread over the day, and the stage runs once per subcycle until
  every slot is free.  ``departures_per_s`` is rows released over the
  stage's wall clock, and ``calibrated_rate`` divides it by the same
  calibration loop as the joins; it is the departures trend gate
  (``--key departures.calibrated_rate``).
* **Migrations** — :func:`repro.core.lifecycle.fail_supernodes` over a
  warmed system: players re-attached through their candidate lists,
  then a supernode failure wave re-homes them down the §3.2.2
  reconnect ladder.  Throughput only — there is no scalar twin, the
  ladder *is* the product path.

Default workload is the paper's population (100 k players, 6 000
supernodes) over a 2-day schedule; ``--tiny`` shrinks everything to
CI seconds-scale.  The committed snapshot under ``benchmarks/results`` is the ``--tiny``
workload so ``tools/bench_trend.py`` diffs CI runs
against a like-for-like baseline; the paper-scale arrivals figure
lives in ``BENCH_full_scale.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_lifecycle.py --tiny
    PYTHONPATH=src python benchmarks/bench_lifecycle.py          # 100k
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time
from types import SimpleNamespace

import numpy as np

from repro.core import sweep
from repro.core.config import cloudfog_advanced
from repro.core.entities import Supernode
from repro.core.lifecycle import attach, fail_supernodes
from repro.core.state import SessionTable
from repro.core.system import CloudFogSystem

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _arrivals_wall(config, days: int):
    """One full run; returns the arrivals stage's wall clock and result."""
    system = CloudFogSystem(config)
    wall = 0.0
    original = sweep.SUBCYCLE_STAGES

    def timed(fn):
        if fn is not sweep.stage_arrivals:
            return fn

        def inner(state, ctx):
            nonlocal wall
            t0 = time.perf_counter()
            fn(state, ctx)
            wall += time.perf_counter() - t0

        return inner

    sweep.SUBCYCLE_STAGES = tuple(timed(fn) for fn in original)
    try:
        result = system.run(days=days)
    finally:
        sweep.SUBCYCLE_STAGES = original
    return wall, result


def calibration_rate(rounds: int = 3, iterations: int = 20_000) -> float:
    """Iterations/s of a fixed loop, fastest of ``rounds``.

    The loop mirrors what a join spends its time on — list walks over
    availability bytes, dict lookups, a small numpy vector expression —
    so dividing a measured joins/s by it cancels most of the host's
    speed and leaves the code's.
    """
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 256, size=(64, 8)).tolist()
    avail = bytearray(rng.integers(0, 2, size=256).astype(np.uint8))
    scores = {i: float(i) for i in range(256)}
    vec = rng.random(64)
    best = float("inf")
    for _ in range(rounds):
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(iterations):
            row = rows[i & 63]
            live = [j for j in row if avail[j]]
            if live:
                acc += max(scores[j] for j in live)
            if not i & 7:
                acc += float(np.sqrt(vec * vec + vec[i & 63]).max())
        best = min(best, time.perf_counter() - t0)
    return iterations / best


def calibrated_rates(measure, repeats: int) -> dict:
    """Median rate, calibration rate and their ratio over ``repeats``.

    ``measure()`` runs the workload once and returns its rate.  Each
    run is bracketed by calibrations, so host speed drifting between
    repeats cancels in the ratio.
    """
    rates, calibrations, calibrated = [], [], []
    for _ in range(repeats):
        before = calibration_rate()
        rate = measure()
        calibration = (before + calibration_rate()) / 2.0
        rates.append(rate)
        calibrations.append(calibration)
        calibrated.append(rate / calibration)
    return {
        "rate_per_s": float(np.median(rates)),
        "calibration_per_s": float(np.median(calibrations)),
        "calibrated_rate": float(np.median(calibrated)),
    }


def bench_joins(num_players: int, num_supernodes: int, days: int,
                seed: int, repeats: int) -> dict:
    config = cloudfog_advanced(num_players=num_players, num_datacenters=6,
                               num_supernodes=num_supernodes, seed=seed)
    # Warmup days run the identical join pipeline, they just don't
    # record — scale the recorded count back up to joins simulated.
    warmup = min(config.schedule.warmup_days, max(0, days - 1))
    joins = 0

    def measure() -> float:
        nonlocal joins
        wall, result = _arrivals_wall(config, days)
        joins = round(len(result.sessions) / (days - warmup) * days)
        return joins / wall

    figures = calibrated_rates(measure, repeats)
    return {"joins": joins, "days": days, "repeats": repeats,
            "joins_per_s": figures.pop("rate_per_s"), **figures}


def bench_departures(num_supernodes: int, per_node: int, hours: int,
                     rounds: int, seed: int, repeats: int) -> dict:
    rng = np.random.default_rng(seed)
    rows = num_supernodes * per_node
    sids = np.repeat(np.arange(num_supernodes), per_node)
    # Windows end in 1..hours-1, so stage_departures releases every
    # row at one of the subcycles 2..hours.
    ends = rng.integers(1, hours, size=rows)
    pool = [Supernode(supernode_id=sid, host_player=-1, capacity=per_node,
                      upload_mbps=30.0, access_ms=5.0)
            for sid in range(num_supernodes)]
    # The stage reads only the pool off the state.
    state = SimpleNamespace(supernode_pool=pool)

    def filled_context() -> sweep.SweepContext:
        table = SessionTable(rows)
        cols = table.columns
        cols.active[:] = 1
        cols.supernode_id[:] = sids
        cols.end_subcycle[:] = ends
        for sn in pool:
            for _ in range(per_node):
                sn.connect()
        return sweep.SweepContext(
            day=0, hours=hours, rng=rng, result=None, measuring=False,
            loads=None, cloud_rate=None, starts={}, sessions=table)

    def measure() -> float:
        wall = 0.0
        for _ in range(rounds):
            ctx = filled_context()
            t0 = time.perf_counter()
            for subcycle in range(2, hours + 1):
                ctx.subcycle = subcycle
                sweep.stage_departures(state, ctx)
            wall += time.perf_counter() - t0
            assert not ctx.sessions.columns.active.any() and all(
                sn.load == 0 for sn in pool), "departures left a slot taken"
        return rounds * rows / wall

    figures = calibrated_rates(measure, repeats)
    return {"departures": rows, "rounds": rounds, "repeats": repeats,
            "departures_per_s": figures.pop("rate_per_s"), **figures}


def bench_migrations(num_players: int, num_supernodes: int,
                     fail_count: int, seed: int) -> dict:
    config = cloudfog_advanced(num_players=num_players, num_datacenters=6,
                               num_supernodes=num_supernodes, seed=seed)
    system = CloudFogSystem(config)
    system.run(days=2)  # warm: candidate lists, reputation, geometry
    state = system.state

    # The schedule drains every connection by day end, so re-attach
    # players through their remembered candidates — the same lists the
    # reconnect ladder will walk — before the failure wave.  Fill each
    # node only to half capacity: a saturated pool would drop every
    # displaced player instead of migrating it.
    attached = 0
    for player in range(num_players):
        for entry in state.candidates.candidates(player):
            sn = state.supernode_pool[entry.supernode_id]
            if sn.online and sn.load * 2 < sn.capacity:
                attach(state, player, sn)
                state.sticky[player] = sn.supernode_id
                attached += 1
                break

    before = state.fault_outcomes.displaced
    t0 = time.perf_counter()
    fail_supernodes(state, fail_count, np.random.default_rng(seed + 1))
    wall = time.perf_counter() - t0
    displaced = state.fault_outcomes.displaced - before
    return {
        "attached": attached,
        "failed_supernodes": fail_count,
        "displaced": displaced,
        "recovered": state.fault_outcomes.recovered,
        "migrations_per_s": displaced / wall if wall else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark join/depart/migrate lifecycle throughput.")
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized workload (seconds, not minutes)")
    parser.add_argument("--days", type=int, default=2,
                        help="schedule length for the joins run")
    parser.add_argument("--output", default=None,
                        help="output path (default benchmarks/results/"
                             "BENCH_lifecycle.json)")
    args = parser.parse_args(argv)

    if args.tiny:
        players, supernodes = 2000, 120
        depart_nodes, per_node, rounds = 200, 40, 20
        fail_count = 24
        repeats = 9
    else:
        players, supernodes = 100_000, 6000
        depart_nodes, per_node, rounds = 2000, 100, 3
        fail_count = 600
        repeats = 1

    results = {
        "workload": {"players": players, "supernodes": supernodes,
                     "tiny": args.tiny, "cpu_count": os.cpu_count()},
        "joins": bench_joins(players, supernodes, days=args.days, seed=11,
                             repeats=repeats),
        "departures": bench_departures(depart_nodes, per_node, hours=24,
                                       rounds=rounds, seed=11,
                                       repeats=repeats),
        "migrations": bench_migrations(players, supernodes, fail_count,
                                       seed=11),
    }

    output = pathlib.Path(args.output) if args.output else \
        RESULTS_DIR / "BENCH_lifecycle.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=2) + "\n")

    joins, departs, migrations = (results["joins"], results["departures"],
                                  results["migrations"])
    print(f"joins:      {joins['joins_per_s']:,.0f}/s in the arrivals "
          f"stage, {joins['calibrated_rate']:.4f} per calibration "
          f"loop/s ({joins['calibration_per_s']:,.0f}/s)")
    print(f"departures: {departs['departures_per_s']:,.0f}/s through "
          f"stage_departures, {departs['calibrated_rate']:.4f} per "
          f"calibration loop/s")
    print(f"migrations: {migrations['displaced']:,} displaced, "
          f"{migrations['recovered']:,} recovered at "
          f"{migrations['migrations_per_s']:,.0f}/s")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
