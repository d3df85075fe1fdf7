"""Run dirs and per-run reports: telemetry on disk, rendered for humans.

Two halves:

* :func:`write_run_dir` flushes the *live* observability objects into a
  directory of well-known artifacts — ``trace.jsonl``, ``metrics.prom``
  + ``metrics.json``, ``timeseries.json``, ``events.jsonl``,
  ``slo.json`` and a ``run.json`` metadata stamp.  The CLI's
  ``--obs-dir`` flag calls this after a run.
* :func:`render_report` reads such a directory back (every artifact is
  optional) and renders a markdown + JSON report: SLO verdicts with
  their violating days, the fault timeline, the correlation between the
  two (which injected fault window each violating day saw), per-region
  breakdowns and the per-stage wall-clock profile.
  ``python -m repro report <run-dir>`` prints the markdown and writes
  ``report.md`` / ``report.json`` next to the artifacts.

Layering: a foundation module (rank 0) composed purely of other
``repro.obs`` modules plus :class:`~repro.metrics.tables.ResultTable`.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

from . import get_events, get_registry, get_timeseries, get_tracer
from .profile import phase_breakdown
from .slo import SloPolicy, default_policy, evaluate
from .timeseries import TimeSeriesStore

__all__ = ["write_run_dir", "render_report", "write_report", "RUN_FILES"]

#: Well-known artifact names inside a run dir.
RUN_FILES = {
    "meta": "run.json",
    "trace": "trace.jsonl",
    "metrics_prom": "metrics.prom",
    "metrics_json": "metrics.json",
    "timeseries": "timeseries.json",
    "events": "events.jsonl",
    "slo": "slo.json",
}

#: Event kinds rendered in the fault timeline, in severity order.
FAULT_EVENT_KINDS = ("fault_injected", "detector_trip", "migration",
                     "cloud_fallback")


# ---------------------------------------------------------------------------
# writing a run dir
# ---------------------------------------------------------------------------
def write_run_dir(directory: str | Path,
                  policy: SloPolicy | None = None,
                  meta: dict | None = None) -> list[Path]:
    """Dump the live observability objects into ``directory``.

    Only live pillars write their artifact (a metrics-only run produces
    no ``timeseries.json``); ``slo.json`` carries both the policy and
    its evaluation.  Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tracer, registry = get_tracer(), get_registry()
    timeseries, events = get_timeseries(), get_events()
    written = [directory / RUN_FILES["meta"]]
    written[0].write_text(
        json.dumps(meta or {}, indent=2, sort_keys=True) + "\n")
    if tracer.enabled:
        tracer.export_jsonl(directory / RUN_FILES["trace"])
        written.append(directory / RUN_FILES["trace"])
    if registry.enabled:
        registry.write_prometheus(directory / RUN_FILES["metrics_prom"])
        registry.write_json(directory / RUN_FILES["metrics_json"])
        written += [directory / RUN_FILES["metrics_prom"],
                    directory / RUN_FILES["metrics_json"]]
    if timeseries.enabled:
        timeseries.write_json(directory / RUN_FILES["timeseries"])
        used = policy if policy is not None else default_policy()
        report = evaluate(used, timeseries)
        (directory / RUN_FILES["slo"]).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
        written += [directory / RUN_FILES["timeseries"],
                    directory / RUN_FILES["slo"]]
    if events.enabled:
        events.export_jsonl(directory / RUN_FILES["events"])
        written.append(directory / RUN_FILES["events"])
    return written


# ---------------------------------------------------------------------------
# reading one back
# ---------------------------------------------------------------------------
def _load_json(path: Path):
    return json.loads(path.read_text()) if path.exists() else None


def _load_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line)
            for line in path.read_text().splitlines() if line.strip()]


def _load_store(payload) -> TimeSeriesStore | None:
    if not payload:
        return None
    store = TimeSeriesStore()
    store.load_payload(payload)
    return store


def render_report(directory: str | Path,
                  policy: SloPolicy | None = None) -> tuple[str, dict]:
    """Render a run dir as ``(markdown, payload)``.

    Every artifact is optional; sections for missing data state so
    instead of failing.  ``policy`` (when given) re-evaluates the SLOs
    over the stored time series instead of using the saved ``slo.json``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"run dir {directory} does not exist")
    meta = _load_json(directory / RUN_FILES["meta"]) or {}
    store = _load_store(_load_json(directory / RUN_FILES["timeseries"]))
    events = _load_jsonl(directory / RUN_FILES["events"])
    spans = _load_jsonl(directory / RUN_FILES["trace"])

    slo_payload = None
    if policy is not None and store is not None:
        slo_payload = evaluate(policy, store).as_dict()
    elif store is not None and policy is None:
        saved = _load_json(directory / RUN_FILES["slo"])
        slo_payload = saved if saved is not None else evaluate(
            default_policy(), store).as_dict()

    payload = {
        "run_dir": str(directory),
        "meta": meta,
        "slo": slo_payload,
        "fault_timeline": _fault_timeline(events),
        "correlations": _correlate(slo_payload, events),
        "regions": _region_breakdown(store),
        "profile": _profile_rows(spans),
    }
    markdown = _render_markdown(directory, payload)
    return markdown, payload


def write_report(directory: str | Path, markdown: str,
                 payload: dict) -> tuple[Path, Path]:
    """Write ``report.md`` / ``report.json`` into the run dir."""
    directory = Path(directory)
    md_path = directory / "report.md"
    json_path = directory / "report.json"
    md_path.write_text(markdown)
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return md_path, json_path


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------
def _fault_timeline(events: list[dict]) -> list[dict]:
    timeline = [e for e in events if e.get("kind") in FAULT_EVENT_KINDS]
    timeline.sort(key=lambda e: (e.get("day") or 0,
                                 e.get("subcycle") or 0, e.get("seq", 0)))
    return timeline


def _correlate(slo_payload, events: list[dict]) -> list[dict]:
    """For each violating day: the fault events inside that day."""
    if not slo_payload:
        return []
    injected = [e for e in events if e.get("kind") == "fault_injected"]
    out = []
    for day in slo_payload.get("violating_days", ()):
        windows = [e for e in injected if e.get("day") == day]
        broken = [o["objective"]["name"]
                  for o in slo_payload.get("objectives", ())
                  if day in o.get("violating_days", ())]
        out.append({"day": day, "objectives": broken,
                    "fault_events": windows})
    return out


def _region_breakdown(store: TimeSeriesStore | None) -> list[dict]:
    if store is None:
        return []
    rows = []
    for region in store.regions():
        samples = store.samples(region=region)
        if not samples:
            continue
        # Days without sessions carry p95 = None ("no data"); rank them
        # below every day that actually measured a latency.
        worst = max(samples,
                    key=lambda s: (s.p95_response_latency_ms is not None,
                                   s.p95_response_latency_ms or 0.0))
        count = len(samples)
        rows.append({
            "region": region,
            "days": count,
            "mean_sessions": sum(s.sessions for s in samples) / count,
            "worst_p95_response_latency_ms":
                worst.p95_response_latency_ms,
            "worst_p95_day": worst.day,
            "mean_continuity":
                sum(s.mean_continuity for s in samples) / count,
            "mean_mos": sum(s.mean_mos for s in samples) / count,
        })
    return rows


def _profile_rows(spans: list[dict]) -> list[dict]:
    if not spans:
        return []
    shims = [SimpleNamespace(name=s["name"], span_id=s["span_id"],
                             parent_id=s["parent_id"],
                             duration_s=s["duration_s"])
             for s in spans]
    return [{k: row[k] for k in ("name", "count", "total_s", "self_s",
                                 "mean_ms", "self_share")}
            for row in phase_breakdown(shims)]


# ---------------------------------------------------------------------------
# markdown
# ---------------------------------------------------------------------------
def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def _fmt(value) -> str:
    if value is None:
        return "—"  # "no data" sentinel (e.g. a day with no recoveries)
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def _render_markdown(directory: Path, payload: dict) -> str:
    lines = [f"# Run report — {directory.name}", ""]
    meta = payload["meta"]
    if meta:
        lines += ["## Run", ""]
        lines += _md_table(["key", "value"],
                           [[k, _fmt(v)] for k, v in sorted(meta.items())])
        lines.append("")

    lines += ["## SLO verdicts", ""]
    slo = payload["slo"]
    if slo is None:
        lines += ["No time-series telemetry in this run dir "
                  "(run with `--obs-dir` and metrics enabled).", ""]
    else:
        status = "**PASS**" if slo.get("ok") else "**VIOLATED**"
        lines += [f"Policy `{slo['policy']['name']}`: {status}", ""]
        rows = []
        for objective in slo.get("objectives", ()):
            spec = objective["objective"]
            rows.append([
                spec["name"], spec["metric"],
                f"{spec['op']} {_fmt(spec['threshold'])}", spec["region"],
                "OK" if objective["ok"] else "VIOLATED",
                ", ".join(f"day {d}"
                          for d in objective["violating_days"]) or "—",
                ", ".join(str(d)
                          for d in objective["alerting_days"]) or "—"])
        lines += _md_table(["objective", "metric", "bound", "region",
                            "status", "violating days", "alerting days"],
                           rows)
        lines.append("")

    lines += ["## Fault timeline", ""]
    timeline = payload["fault_timeline"]
    if not timeline:
        lines += ["No fault events recorded.", ""]
    else:
        rows = []
        for event in timeline:
            attrs = ", ".join(f"{k}={_fmt(v)}"
                              for k, v in sorted(event["attrs"].items())
                              if v is not None)
            rows.append([event.get("day", "—"),
                         event.get("subcycle", "—"),
                         event["kind"], attrs or "—"])
        lines += _md_table(["day", "subcycle", "event", "details"], rows)
        lines.append("")

    correlations = payload["correlations"]
    if correlations:
        lines += ["### Violations correlated to fault windows", ""]
        for item in correlations:
            objectives = ", ".join(item["objectives"]) or "objectives"
            if item["fault_events"]:
                windows = "; ".join(
                    f"{e['attrs'].get('fault_kind', '?')}"
                    f" x{e['attrs'].get('count', 1)}"
                    f" @ subcycle {e.get('subcycle')}"
                    for e in item["fault_events"])
                lines.append(
                    f"- **day {item['day']}** violated {objectives} — "
                    f"injected fault window: {windows}")
            else:
                lines.append(
                    f"- **day {item['day']}** violated {objectives} — "
                    f"no fault injected that day")
        lines.append("")

    lines += ["## Region breakdown", ""]
    regions = payload["regions"]
    if not regions:
        lines += ["No per-region telemetry recorded.", ""]
    else:
        rows = [[r["region"], r["days"], _fmt(r["mean_sessions"]),
                 f"{_fmt(r['worst_p95_response_latency_ms'])}"
                 f" (day {r['worst_p95_day']})",
                 _fmt(r["mean_continuity"]), _fmt(r["mean_mos"])]
                for r in regions]
        lines += _md_table(["region", "days", "mean sessions",
                            "worst p95 latency ms", "mean continuity",
                            "mean MOS"], rows)
        lines.append("")

    lines += ["## Per-stage profile", ""]
    profile = payload["profile"]
    if not profile:
        lines += ["No trace spans recorded (run with `--trace`).", ""]
    else:
        rows = [[row["name"], row["count"], _fmt(row["total_s"]),
                 _fmt(row["self_s"]), _fmt(row["mean_ms"]),
                 f"{100.0 * row['self_share']:.1f}%"]
                for row in profile]
        lines += _md_table(["phase", "calls", "total s", "self s",
                            "mean ms", "self %"], rows)
        lines.append("")
    return "\n".join(lines)
