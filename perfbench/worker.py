"""One benchmark execution in a fresh process; prints one JSON line.

Usage: ``python3 perfbench/worker.py MODE WORKLOAD SEED TMP_DIR [SPANS]``

``timed``
    set up and run untraced; report host figures and peak RSS (this
    process and any worker process it waited for).
``reference``
    run the sharded workload with every partition in this process.
``traced``
    run once more with the layer wrappers installed, write the spans
    to ``SPANS`` and report per-layer figures.  The sharded workload
    also runs untraced in-process (the overhead baseline) and over one
    worker per core with only the shard boundary wrapped, which gives
    the time the parent waits on its workers.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Largest max RSS of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(stats: dict, out: dict, workload) -> dict:
    """Per-layer figures from the traced run's span aggregates."""
    def total(name: str, key: str = "s") -> float:
        return stats.get(name, {}).get(key, 0)

    metrics = {
        "state.build_population.s": total("state.build_population"),
        "state.build_supernode_pool.s":
            total("state.build_supernode_pool"),
        "shard.merge_results.s": total("shard.merge_results"),
        "shard.partition_s.max": total("shard.partition", "max_s"),
        "shard.partition_s.sum": total("shard.partition"),
        "sweep.run_day.calls": total("sweep.run_day", "calls"),
        "sweep.run_day.self_s": total("sweep.run_day", "self_s"),
        "sweep.sweep_day.self_s": total("sweep.sweep_day", "self_s"),
        "scoring.score_sessions.self_s":
            total("scoring.score_sessions", "self_s"),
    }
    for name in ("sweep.run_server_assignment", "lifecycle.join",
                 "lifecycle.join_cohort", "handlers.migrate",
                 "checkpoint.save_checkpoint", "sweep.stage_departures",
                 "sweep.stage_faults", "sweep.stage_scenario",
                 "sweep.stage_arrivals"):
        metrics[f"{name}.s"] = total(name)
        metrics[f"{name}.calls"] = total(name, "calls")
    for name in ("sweep.sample_plans", "sweep.choose_games",
                 "sweep.run_provisioning", "accounting.credit_contributors",
                 "accounting.summarize_day",
                 "scoring.gather_session_params",
                 "scoring.estimate_continuity_batch",
                 "handlers.apply_faults", "checkpoint.capture_state",
                 "checkpoint.write_checkpoint", "sweep.day_end_flush",
                 "slo.evaluate"):
        metrics[f"{name}.s"] = total(name)

    # Each worker task of a multi-process run rebuilds every partition,
    # and the parent builds them once: 1 + one build per partition.
    partitions = out.get("partitions", 0)
    builds = total("shard.build_partitions", "calls")
    per_build = total("shard.build_partitions") / builds if builds else 0.0
    calls = 1 + partitions if workload.sharded else 0
    metrics["shard.build_partitions.calls"] = calls
    metrics["shard.build_partitions.s"] = per_build * calls
    metrics["shard.partitions"] = partitions
    metrics["shard.partition_players_max_share"] = out.get(
        "partition_players_max_share", 0.0)
    metrics["checkpoint.bytes"] = out["checkpoint_bytes"]
    for name in ("sim.join_ms_p50", "sim.join_ms_p99", "sim.join_samples",
                 "sim.recover_ms_p50", "sim.recover_ms_p99",
                 "sim.recover_samples", "lifecycle.fog_hit_ratio",
                 "scoring.sessions", "faults.displaced", "faults.retries",
                 "faults.shed", "faults.joins_shed",
                 "faults.recovered_ratio"):
        metrics[name] = out["sim"][name]
    return metrics


def top_level(stats: dict) -> tuple[float, float]:
    """(covered seconds, self seconds) of the top-level spans."""
    top = [entry for entry in stats.values() if entry["top_level"]]
    return (sum(entry["s"] for entry in top),
            sum(entry["self_s"] for entry in top))


def traced(workload, seed: int, tmp_dir: str, spans_path: str) -> dict:
    run_id = f"{workload.name}-{seed}-{time.time_ns()}"
    extra = {}
    if workload.sharded:
        reference = workloads.execute(workload, seed, tmp_dir, shards=1)
        extra["untraced_wall_s"] = reference["wall_s"]
        extra["digests"] = [reference["digest"]]
        boundary = tracing.Tracer(run_id, tracing.SHARD_BOUNDARY,
                                  stages=False)
        pooled = workloads.execute(workload, seed, tmp_dir,
                                   tracer=boundary)
        extra["digests"].append(pooled["digest"])
        extra["checks"] = {**reference["checks"], **pooled["checks"]}
        run = boundary.aggregate()["run"]
        extra["shard.parent_wait_s"] = run["self_s"]
    tracer = tracing.Tracer(run_id)
    out = workloads.execute(workload, seed, tmp_dir, tracer=tracer,
                            shards=1)
    tracer.write(Path(spans_path))
    stats = tracer.aggregate()
    metrics = layer_metrics(stats, out, workload)
    metrics["shard.parent_wait_s"] = extra.get("shard.parent_wait_s", 0.0)
    metrics["shard.workers"] = (min(workloads.cores(), out["partitions"])
                                if workload.sharded else 0)
    covered, unattributed = top_level(stats)
    metrics["trace.spans"] = len(tracer)
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.unattributed_share"] = unattributed / covered
    checks = dict(out["checks"])
    for name, ok in extra.get("checks", {}).items():
        checks[name] = checks[name] and ok
    executions = 1 + len(extra.get("digests", []))
    return {"digest": out["digest"], "digests": extra.get("digests", []),
            "wall_s": out["wall_s"], "plans": out["plans"] * executions,
            "untraced_wall_s": extra.get("untraced_wall_s"),
            "absent": tracer.absent, "checks": checks, "layers": metrics}


def main(argv: list[str]) -> int:
    mode, name, seed, tmp_dir = argv[:4]
    workload = workloads.WORKLOADS[name]
    if mode == "timed":
        out = workloads.execute(workload, int(seed), tmp_dir)
        out["peak_rss_mb"] = peak_rss_mb()
    elif mode == "reference":
        out = workloads.execute(workload, int(seed), tmp_dir, shards=1)
    elif mode == "traced":
        out = traced(workload, int(seed), tmp_dir, argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
