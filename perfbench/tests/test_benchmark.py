"""Quick self-test of the benchmark: every workload at a tiny population.

Drives ``run.main`` end to end for both ``--trace`` modes, with the
worker executions run in this process instead of fresh ones.  Asserts
that every metric ``BENCHMARK.json`` names is printed with its unit and
direction, and that every output check passes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """100 players, two days, worker executions in this process."""
    monkeypatch.setattr(workloads, "SCALE", 0.002)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    for name, workload in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            replace(workload, days=2))

    def in_process(args, deadline):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert worker.main(args) == 0
        return json.loads(out.getvalue().splitlines()[-1])

    monkeypatch.setattr(run, "run_child", in_process)


def test_workloads_match_the_benchmark_file():
    assert WORKLOADS == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_every_check_passes(workload, trace,
                                                     capsys):
    assert run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    wanted = SPEC["per_layer" if trace else "end_to_end"]

    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    checks = [line for line in lines if line.startswith("# check ")]
    assert checks and all(line.endswith(": ok") for line in checks)
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        suffix = f" {metric['unit']}  ({metric['better']} is better)"
        assert any(line.startswith(metric["name"] + " ")
                   and line.endswith(suffix) for line in lines), metric


def test_a_deleted_layer_is_reported_absent(monkeypatch, capsys):
    from repro.core import sweep
    monkeypatch.delattr(sweep, "join_cohort")
    assert run.main(["--workload", "fog-paper", "--seed", "3",
                     "--seconds", "0", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# absent layers: lifecycle.join_cohort" in lines
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["lifecycle.join_cohort.calls"]["value"] == 0
