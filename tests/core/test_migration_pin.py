"""Pins of the out-of-band migration paths: orphan order and outcomes.

Both callers attach players to supernodes after a finished day, fail a
share of the pool and walk the orphans down the §3.2.2 reconnect
ladder.  The orphan order decides which player takes which free slot,
so a change to it, or to how the ladder re-homes players, moves these
digests.
"""

import hashlib

from benchmarks import bench_lifecycle
from repro.experiments import figures
from repro.experiments.runner import build_system
from repro.experiments.testbeds import peersim


def _digest(values) -> str:
    return hashlib.sha256(
        "|".join(repr(v) for v in values).encode()).hexdigest()


def test_fig9_migration_latencies_are_pinned():
    # The 400-player point of fig9_setup_latencies.
    system = build_system("CloudFog/B", peersim(), seed=0, num_players=400,
                          num_supernodes=24)
    system.run(days=2)
    latencies = figures._measure_migrations(system, 0)
    assert len(latencies) == 2
    assert _digest(latencies) == (
        "e269a801dc314cab50376c638dc41c22e95f0d1833f9632b21a678c55d7efb93")


def test_bench_migrations_outcome_is_pinned():
    # bench_lifecycle.py --tiny sizes.
    outcome = bench_lifecycle.bench_migrations(2000, 120, 24, seed=11)
    assert (outcome["attached"], outcome["displaced"],
            outcome["recovered"]) == (380, 61, 59)
