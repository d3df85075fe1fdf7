"""In-memory span tracer that wraps library functions from the outside.

The benchmark never edits the program.  It times a layer by replacing
the module attribute the caller looks up at call time with a wrapper
that records one span per call: name, start, end and parent span, all
spans of one run sharing a run id.  Spans stay in memory and are
written out once, when the run ends.

A layer whose function no longer exists (a later change deleted or
renamed it) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute looked up at call time, span name).  Several
#: lookups may share one span name when two callers reach the same
#: function through different modules.
WRAPPED = (
    ("repro.core.state", "build_population", "state.build_population"),
    ("repro.core.shard", "build_population", "state.build_population"),
    ("repro.core.state", "build_supernode_pool",
     "state.build_supernode_pool"),
    ("repro.core.shard", "build_partitions", "shard.build_partitions"),
    ("repro.core.shard", "run_schedule", "shard.partition"),
    ("repro.core.shard", "merge_results", "shard.merge_results"),
    ("repro.core.sweep", "run_day", "sweep.run_day"),
    ("repro.core.sweep", "run_server_assignment",
     "sweep.run_server_assignment"),
    ("repro.core.sweep", "sample_plans", "sweep.sample_plans"),
    ("repro.core.sweep", "choose_games", "sweep.choose_games"),
    ("repro.core.sweep", "sweep_day", "sweep.sweep_day"),
    ("repro.core.sweep", "run_provisioning", "sweep.run_provisioning"),
    ("repro.core.sweep", "credit_contributors",
     "accounting.credit_contributors"),
    ("repro.core.sweep", "summarize_day", "accounting.summarize_day"),
    ("repro.core.sweep", "day_end_flush", "sweep.day_end_flush"),
    ("repro.core.sweep", "score_sessions", "scoring.score_sessions"),
    ("repro.core.sweep", "join", "lifecycle.join"),
    ("repro.core.sweep", "join_cohort", "lifecycle.join_cohort"),
    ("repro.core.scoring", "gather_session_params",
     "scoring.gather_session_params"),
    ("repro.core.scoring", "estimate_continuity_batch",
     "scoring.estimate_continuity_batch"),
    ("repro.faults.handlers", "apply_faults", "handlers.apply_faults"),
    ("repro.faults.handlers", "migrate", "handlers.migrate"),
    ("repro.persist.checkpoint", "save_checkpoint",
     "checkpoint.save_checkpoint"),
    ("repro.persist.checkpoint", "capture_state",
     "checkpoint.capture_state"),
    ("repro.persist.checkpoint", "write_checkpoint",
     "checkpoint.write_checkpoint"),
    ("repro.obs.slo", "evaluate", "slo.evaluate"),
)

#: Only the shard boundary: used for the multi-process run, whose
#: partition work happens in worker processes the tracer cannot see.
SHARD_BOUNDARY = tuple(entry for entry in WRAPPED
                       if entry[1] in ("build_partitions", "merge_results"))

#: The subcycle stage tuple ``sweep_day`` iterates; its entries are
#: wrapped one by one under ``sweep.<function name>``.
STAGES = ("repro.core.sweep", "SUBCYCLE_STAGES")


class Tracer:
    """Records spans of wrapped calls; single-threaded by design.

    Spans live in flat typed arrays, so recording one allocates no
    object the garbage collector has to track.
    """

    def __init__(self, run_id: str, table=WRAPPED,
                 stages: bool = True) -> None:
        self.run_id = run_id
        self.table = table
        self.stages = stages
        self.names: list[str] = []
        self.absent: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._span_name)

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._span_name)
        self._span_name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)
        return traced

    def install(self) -> None:
        """Wrap every looked-up attribute of the table (and the stages)."""
        installed = set()
        for module_name, attr, name in self.table:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
            installed.add(name)
        self.absent = [name for name in dict.fromkeys(
            entry[2] for entry in self.table) if name not in installed]
        if self.stages:
            module = importlib.import_module(STAGES[0])
            original = getattr(module, STAGES[1], None)
            if original is None:
                self.absent.append("sweep.SUBCYCLE_STAGES")
                return
            self._restore.append((module, STAGES[1], original))
            setattr(module, STAGES[1], tuple(
                self.wrap("sweep." + getattr(stage, "__name__",
                                             type(stage).__name__), stage)
                for stage in original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def spans(self):
        """Yield ``(name, start, end, parent index)`` per span."""
        names = self.names
        for name_id, start, end, parent in zip(
                self._span_name, self._start, self._end, self._parent):
            yield names[name_id], start, end, parent

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s``, ``self_s`` and ``max_s``.

        A span's self time is its duration minus the time its direct
        children cover; wrapped calls run on one thread and nest, so
        the children never overlap each other.
        """
        child_time = [0.0] * len(self)
        for _, start, end, parent in self.spans():
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (name, start, end, parent), covered in zip(self.spans(),
                                                       child_time):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0,
                                            "self_s": 0.0, "max_s": 0.0,
                                            "top_level": parent < 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["max_s"] = max(entry["max_s"], end - start)
        return stats

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (called when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans()):
                out.write(json.dumps({
                    "run_id": self.run_id, "span": index, "name": name,
                    "start": start, "end": end,
                    "parent": None if parent < 0 else parent}) + "\n")
