"""The benchmark's four CloudFog workloads and one execution of each.

Every workload uses the PeerSim preset, so the player : supernode :
datacenter proportions are the paper's.  The seed given to the
benchmark becomes the config seed (and seeds the generated fault plan);
the program receives only the config and the ``FaultPlan``.

Only the public library API is driven: ``variant_config``,
``CloudFogSystem``, ``run_sharded_config``, ``build_partitions``,
``FaultPlan``, ``Checkpointer`` and the SLO evaluator.  Assignment and
scoring modes are never set, so the default paths are measured.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core import shard
from repro.core.system import CloudFogSystem
from repro.experiments import peersim, run_sharded_config, variant_config
from repro.faults import FaultPlan
from repro.faults.plan import AdmissionPolicy, FaultEvent, HealingPolicy
from repro.obs import slo
from repro.persist import Checkpointer
from repro.sim.cycles import Schedule

#: PeerSim preset scale: 5,000 players, 300 supernodes, 5 datacenters.
SCALE = 0.05
#: System builds per execution; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    why: str
    #: Simulated days per execution, every one measured (no warm-up).
    #: Each day re-draws the social game choice, whose herding moves
    #: the day's QoE by up to a third, so one day is not enough; a
    #: cloud day costs a quarter of a fog day, so the cloud workload
    #: runs four times as many to weigh the same per repeat.
    days: int = 6
    #: Dense fault plan, telemetry on, SLO evaluation, day-end checkpoints.
    outage: bool = False
    #: Run through ``run_sharded_config`` with one worker per core.
    sharded: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("fog-paper", "CloudFog/A",
             "the paper's system as users run it: fog selection and "
             "arrivals dominate"),
    Workload("cloud-baseline", "Cloud",
             "no supernodes, so fog search and selection are skipped and "
             "per-player scoring and game choice dominate", days=24),
    Workload("fog-outage", "CloudFog/A",
             "dense correlated faults with telemetry, SLOs and day-end "
             "checkpoints: migration, persistence and the obs flush",
             outage=True),
    Workload("fog-sharded", "CloudFog/A",
             "the fog-paper config over one worker per core: partition "
             "build, worker pool and merge", sharded=True),
)}


def cores() -> int:
    return len(os.sched_getaffinity(0))


def fault_plan(seed: int, days: int, num_datacenters: int) -> FaultPlan:
    """A dense, seed-generated schedule of correlated faults.

    Every day: a regional outage, a crash burst, a warned preemption
    and a link degradation; every second day a whole datacenter fails;
    the first day carries a fog-cloud partition window.  Healing, join
    shedding during the partition and transient refusals are on.
    Outages rotate over the datacenters in a fixed order and the seed
    jitters every instant by one subcycle, so the plan weighs the same
    for every seed and the spread across seeds is the population's.
    """
    rng = np.random.default_rng([seed, 0xFA017])

    def at(subcycle: int) -> int:
        return subcycle + int(rng.integers(-1, 2))

    events = [FaultEvent(day=0, subcycle=at(19), kind="partition",
                         duration_subcycles=3)]
    for day in range(days):
        events += [
            FaultEvent(day=day, subcycle=at(6), kind="regional_outage",
                       datacenter=day % num_datacenters,
                       radius_km=400.0),
            FaultEvent(day=day, subcycle=at(12), kind="crash", count=8),
            FaultEvent(day=day, subcycle=at(16), kind="preempt", count=10,
                       warning_subcycles=2),
            FaultEvent(day=day, subcycle=at(20), kind="degrade_link",
                       extra_ms=20.0),
        ]
        if day % 2 == 1:
            events.append(FaultEvent(
                day=day, subcycle=at(21), kind="dc_outage",
                datacenter=(day + 2) % num_datacenters))
    return FaultPlan(events=tuple(events), transient_refusal_prob=0.15,
                     admission=AdmissionPolicy(shed_during_partition=True),
                     healing=HealingPolicy(delay_subcycles=2))


def make_config(workload: Workload, seed: int):
    testbed = peersim(SCALE)
    overrides = {"schedule": Schedule(days=workload.days, warmup_days=0)}
    if workload.outage:
        overrides["fault_plan"] = fault_plan(seed, workload.days,
                                             testbed.num_datacenters)
    return variant_config(workload.variant, testbed, seed, **overrides)


def digest(result) -> str:
    """SHA-256 over every simulated output of a RunResult."""
    parts = []
    for day in result.days:
        parts.append(repr((day.day, day.online_players,
                           day.supernode_players, day.cloud_players,
                           day.cloud_bandwidth_mbps,
                           day.mean_response_latency_ms,
                           day.mean_server_latency_ms,
                           day.mean_continuity, day.satisfied_ratio)))
    for r in result.sessions:
        parts.append(repr((r.player, r.day, r.game, r.kind.value, r.target,
                           r.response_latency_ms, r.server_latency_ms,
                           r.continuity, r.satisfied, r.join_latency_ms)))
    for values in (result.join_latencies_ms,
                   result.supernode_join_latencies_ms,
                   result.migration_latencies_ms):
        parts.append(repr(list(values)))
    f = result.faults
    parts.append(repr((f.events_applied, f.displaced, f.recovered,
                       f.degraded, f.dropped, f.retries, f.shed, f.drained,
                       f.joins_shed, list(f.time_to_recover_ms))))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def nearest_rank(values, q: float) -> float:
    """The ``q``-quantile by nearest rank; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def outcome(result, plans: int) -> dict:
    """Simulated quantities of one run (deterministic at a fixed seed)."""
    f = result.faults
    sessions = result.sessions
    fog = sum(1 for r in sessions if r.kind.value == "supernode")
    return {
        "sim.continuity_mean": result.mean_continuity,
        "sim.satisfied_ratio": result.mean_satisfied_ratio,
        "sim.cloud_bandwidth_mbps": result.mean_cloud_bandwidth_mbps,
        "sim.response_ms_mean": result.mean_response_latency_ms,
        "sim.response_ms_p99": nearest_rank(
            [r.response_latency_ms for r in sessions], 0.99),
        "sim.served_share": len(sessions) / plans,
        "sim.join_ms_p50": nearest_rank(result.join_latencies_ms, 0.50),
        "sim.join_ms_p99": nearest_rank(result.join_latencies_ms, 0.99),
        "sim.join_samples": len(result.join_latencies_ms),
        "sim.recover_ms_p50": nearest_rank(f.time_to_recover_ms, 0.50),
        "sim.recover_ms_p99": nearest_rank(f.time_to_recover_ms, 0.99),
        "sim.recover_samples": len(f.time_to_recover_ms),
        "lifecycle.fog_hit_ratio": fog / len(sessions) if sessions else 0.0,
        "scoring.sessions": len(sessions),
        "faults.displaced": f.displaced,
        "faults.retries": f.retries,
        "faults.shed": f.shed,
        "faults.joins_shed": f.joins_shed,
        "faults.recovered_ratio":
            f.recovered / f.displaced if f.displaced else 0.0,
    }


def output_checks(result, plans: int, days: int,
                  sim: dict) -> dict[str, bool]:
    """Checks every execution's output must pass."""
    f = result.faults
    finite = all(math.isfinite(v) for v in sim.values())
    return {
        "conservation": f.displaced == (f.recovered + f.degraded
                                        + f.dropped + f.shed),
        "plans_accounted": len(result.sessions) + f.dropped + f.shed
        + f.joins_shed == plans,
        "measured_all_days": len(result.days) == days,
        "sim_in_range": finite
        and 0.0 < sim["sim.continuity_mean"] <= 1.0
        and 0.0 < sim["sim.satisfied_ratio"] <= 1.0
        and 0.0 < sim["sim.served_share"] <= 1.0
        and 0.0 <= sim["lifecycle.fog_hit_ratio"] <= 1.0
        and sim["sim.cloud_bandwidth_mbps"] > 0.0
        and 0.0 < sim["sim.response_ms_mean"] <= sim["sim.response_ms_p99"]
        and sim["sim.join_ms_p50"] <= sim["sim.join_ms_p99"]
        and sim["sim.recover_ms_p50"] <= sim["sim.recover_ms_p99"],
    }


def execute(workload: Workload, seed: int, tmp_root, *, tracer=None,
            shards: int | None = None) -> dict:
    """Set up and run one workload once; return what it measured.

    ``setup_s`` is the median of :data:`SETUP_REPEATS` builds; the last
    build is the one that runs.  ``tracer`` (installed after the
    discarded builds) records spans of the kept build and the run.
    ``shards`` overrides the worker count of the sharded workload (1
    runs every partition in this process).
    """
    config = make_config(workload, seed)
    days = workload.days
    plans = config.num_players * days
    if workload.outage:
        obs.enable()
    setups = []
    partitions = None
    for attempt in range(SETUP_REPEATS):
        kept = attempt == SETUP_REPEATS - 1
        if kept and tracer is not None:
            tracer.install()
        span = tracer.span("setup") if kept and tracer else nullcontext()
        start = time.perf_counter()
        with span:
            if workload.sharded:
                # Looked up at call time, so a tracer's wrapper applies.
                built = shard.build_partitions(config)
            else:
                built = CloudFogSystem(config)
        setups.append(time.perf_counter() - start)
        if workload.sharded:
            partitions, built = built, None
        elif kept:
            system = built
        else:
            del built
            gc.collect()

    checkpoint_dir = None
    written = []
    try:
        with tracer.span("run") if tracer else nullcontext():
            start = time.perf_counter()
            if workload.sharded:
                result = run_sharded_config(config, days,
                                            shards=shards or cores())
            else:
                hook = None
                if workload.outage:
                    checkpoint_dir = tempfile.mkdtemp(prefix="checkpoints-",
                                                      dir=tmp_root)
                    checkpointer = Checkpointer(checkpoint_dir)
                    hook = checkpointer.on_day_end
                    written = checkpointer.written
                result = system.run(days=days, on_day_end=hook)
                if workload.outage:
                    slo.evaluate(slo.default_policy(), obs.get_timeseries())
            run_s = time.perf_counter() - start
        checkpoint_bytes = sum(path.stat().st_size for path in written)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir)
        if workload.outage:
            obs.disable()

    setup_s = statistics.median(setups)
    if workload.sharded:
        # The API call builds the partitions itself.
        wall_s = run_s
        run_s = wall_s - setup_s
    else:
        wall_s = setups[-1] + run_s
    sim = outcome(result, plans)
    out = {
        "setup_samples": setups,
        "wall_s": wall_s,
        "player_days_per_s": plans / run_s,
        "plans": plans,
        "digest": digest(result),
        "sim": sim,
        "checks": output_checks(result, plans, days, sim),
        "checkpoint_bytes": checkpoint_bytes,
    }
    if partitions is not None:
        sizes = [len(p.player_ids) for p in partitions]
        out["partitions"] = len(sizes)
        out["partition_players_max_share"] = max(sizes) / sum(sizes)
    return out
