"""One function per paper figure: the series the paper plots.

Every function returns a :class:`repro.metrics.ResultTable` whose rows
are the same series the corresponding figure reports, at a reduced
default scale (the ``testbed`` argument controls it).  The benchmark
harness prints these tables; EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.config import cloudfog_basic
from ..core import sweep
from ..core.accounting import RunResult
from ..core.system import CloudFogSystem
from ..economics.incentives import IncentiveModel, daily_economics
from ..economics.provider import renting_comparison
from ..metrics.tables import ResultTable
from ..sim.rng import RngFactory
from ..workload.population import build_population
from .coverage import (
    PAPER_LATENCY_REQUIREMENTS_MS,
    coverage_by_datacenters,
    coverage_by_supernode_hosts,
)
from .parallel import VariantTask, run_variants
from .runner import VARIANTS, build_system, run_config
from .testbeds import Testbed, peersim, planetlab

__all__ = [
    "fig4a_coverage_vs_datacenters",
    "fig4b_coverage_vs_supernodes",
    "fig5a_coverage_vs_datacenters_planetlab",
    "fig5b_coverage_vs_supernodes_planetlab",
    "fig6_bandwidth",
    "fig6b_bandwidth_planetlab",
    "fig7_response_latency",
    "fig7b_latency_planetlab",
    "fig8_continuity",
    "fig8b_continuity_planetlab",
    "fig9_setup_latencies",
    "fig9b_latencies_vs_supernodes",
    "fig10_reputation",
    "fig11_adaptation",
    "fig12_server_assignment",
    "fig13_provisioning_bandwidth",
    "fig14_provisioning_latency",
    "fig15_provisioning_continuity",
    "fig16a_supernode_economics",
    "fig16b_provider_savings",
]


# ---------------------------------------------------------------------------
# Figs. 4-5: user coverage
# ---------------------------------------------------------------------------
def _coverage_table(testbed: Testbed, site_kind: str, counts, seed: int
                    ) -> ResultTable:
    rng_factory = RngFactory(seed)
    population = build_population(
        rng_factory.stream("population"), testbed.num_players,
        testbed.num_datacenters, testbed.supernode_capable_share)
    table = ResultTable(
        title=f"Coverage vs #{site_kind}s ({testbed.name})",
        columns=[f"#{site_kind}s",
                 *[f"{int(r)}ms" for r in PAPER_LATENCY_REQUIREMENTS_MS]])
    # Supernode deployments grow as nested prefixes of one shuffled
    # capable pool, so the curves are monotone in the count.
    capable = population.capable_players()
    shuffled = capable[rng_factory.stream("sn-order").permutation(
        len(capable))]
    for count in counts:
        row: list = [count]
        for requirement in PAPER_LATENCY_REQUIREMENTS_MS:
            if site_kind == "datacenter":
                ratio = coverage_by_datacenters(
                    population.topology, count, requirement)
            else:
                ratio = coverage_by_supernode_hosts(
                    population.topology, shuffled[:count], requirement)
            row.append(ratio)
        table.add_row(*row)
    return table


def fig4a_coverage_vs_datacenters(testbed: Testbed | None = None,
                                  counts=(1, 3, 5, 10, 15, 20, 25),
                                  seed: int = 0) -> ResultTable:
    """Fig. 4(a): coverage vs datacenter count (PeerSim).

    Defaults to a 10 k-player PeerSim preset so the supernode companion
    figure has a large enough capable pool for the paper's 600-supernode
    x-axis.
    """
    return _coverage_table(testbed or peersim(0.1), "datacenter", counts,
                           seed)


def fig4b_coverage_vs_supernodes(testbed: Testbed | None = None,
                                 counts=(25, 50, 100, 200, 400, 600),
                                 seed: int = 0) -> ResultTable:
    """Fig. 4(b): coverage vs supernode count (PeerSim)."""
    return _coverage_table(testbed or peersim(0.1), "supernode", counts,
                           seed)


def fig5a_coverage_vs_datacenters_planetlab(counts=(1, 2, 3, 5, 8, 12),
                                            seed: int = 0) -> ResultTable:
    """Fig. 5(a): coverage vs datacenter count on the PlanetLab preset."""
    return _coverage_table(planetlab(), "datacenter", counts, seed)


def fig5b_coverage_vs_supernodes_planetlab(counts=(5, 10, 20, 40, 80, 150),
                                           seed: int = 0) -> ResultTable:
    """Fig. 5(b): coverage vs supernode count on the PlanetLab preset."""
    return _coverage_table(planetlab(), "supernode", counts, seed)


# ---------------------------------------------------------------------------
# Figs. 6-8: system comparison sweeps over the player count
# ---------------------------------------------------------------------------
def _comparison_results(player_counts, testbed: Testbed, seed: int,
                        days: int, jobs: int | None = None
                        ) -> dict[tuple[int, str], RunResult]:
    tasks = []
    for players in player_counts:
        scaled = Testbed(
            name=testbed.name,
            num_players=players,
            num_datacenters=testbed.num_datacenters,
            num_supernodes=max(4, int(players * 0.06)),
            supernode_capable_share=testbed.supernode_capable_share,
            jitter_fraction=testbed.jitter_fraction,
        )
        for variant in VARIANTS:
            tasks.append(VariantTask(variant=variant, testbed=scaled,
                                     seed=seed, days=days))
    outcomes = run_variants(tasks, jobs=jobs)
    return {(task.testbed.num_players, task.variant): outcome
            for task, outcome in zip(tasks, outcomes)}


def _comparison_table(title, column, metric, player_counts, testbed, seed,
                      days, jobs: int | None = None) -> ResultTable:
    testbed = testbed or peersim()
    results = _comparison_results(player_counts, testbed, seed, days, jobs)
    table = ResultTable(title=f"{title} ({testbed.name})",
                        columns=["players", *VARIANTS])
    for players in player_counts:
        table.add_row(players, *[metric(results[(players, variant)])
                                 for variant in VARIANTS])
    table.add_note(f"column unit: {column}")
    return table


def fig6_bandwidth(player_counts=(400, 800, 1600), testbed=None,
                   seed: int = 0, days: int = 3,
                   jobs: int | None = None) -> ResultTable:
    """Fig. 6: cloud bandwidth consumption vs player count."""
    return _comparison_table(
        "Fig 6: server bandwidth consumption", "Mbit/s",
        lambda r: r.mean_cloud_bandwidth_mbps,
        player_counts, testbed, seed, days, jobs)


def fig7_response_latency(player_counts=(400, 800, 1600), testbed=None,
                          seed: int = 0, days: int = 3,
                          jobs: int | None = None) -> ResultTable:
    """Fig. 7: average response latency vs player count."""
    return _comparison_table(
        "Fig 7: average response latency", "ms",
        lambda r: r.mean_response_latency_ms,
        player_counts, testbed, seed, days, jobs)


def fig8_continuity(player_counts=(400, 800, 1600), testbed=None,
                    seed: int = 0, days: int = 3,
                    jobs: int | None = None) -> ResultTable:
    """Fig. 8: playback continuity vs player count."""
    return _comparison_table(
        "Fig 8: playback continuity", "fraction of packets on time",
        lambda r: r.mean_continuity,
        player_counts, testbed, seed, days, jobs)


def fig6b_bandwidth_planetlab(player_counts=(250, 500, 750), seed: int = 0,
                              days: int = 3,
                              jobs: int | None = None) -> ResultTable:
    """Fig. 6(b): cloud bandwidth on the PlanetLab preset."""
    return _comparison_table(
        "Fig 6b: server bandwidth consumption", "Mbit/s",
        lambda r: r.mean_cloud_bandwidth_mbps,
        player_counts, planetlab(), seed, days, jobs)


def fig7b_latency_planetlab(player_counts=(250, 500, 750), seed: int = 0,
                            days: int = 3,
                            jobs: int | None = None) -> ResultTable:
    """Fig. 7(b): response latency on the PlanetLab preset."""
    return _comparison_table(
        "Fig 7b: average response latency", "ms",
        lambda r: r.mean_response_latency_ms,
        player_counts, planetlab(), seed, days, jobs)


def fig8b_continuity_planetlab(player_counts=(250, 500, 750), seed: int = 0,
                               days: int = 3,
                               jobs: int | None = None) -> ResultTable:
    """Fig. 8(b): playback continuity on the PlanetLab preset."""
    return _comparison_table(
        "Fig 8b: playback continuity", "fraction of packets on time",
        lambda r: r.mean_continuity,
        player_counts, planetlab(), seed, days, jobs)


# ---------------------------------------------------------------------------
# Fig. 9: setup / join / migration latencies
# ---------------------------------------------------------------------------
def fig9_setup_latencies(player_counts=(400, 800, 1600),
                         supernode_ratio: float = 0.06,
                         testbed: Testbed | None = None,
                         seed: int = 0) -> ResultTable:
    """Fig. 9: assignment, join and migration latencies vs scale."""
    testbed = testbed or peersim()
    table = ResultTable(
        title=f"Fig 9: setup and churn latencies ({testbed.name})",
        columns=["players", "supernodes", "assignment_s", "sn_join_ms",
                 "player_join_ms", "migration_ms"])
    for players in player_counts:
        num_supernodes = max(4, int(players * supernode_ratio))
        system = build_system(
            "CloudFog/B", testbed, seed=seed, num_players=players,
            num_supernodes=num_supernodes)
        result = system.run(days=2)
        migration = _measure_migrations(system, seed)
        table.add_row(
            players, num_supernodes,
            float(np.mean(result.assignment_wall_times_s)),
            float(np.mean(result.supernode_join_latencies_ms)),
            float(np.mean(result.join_latencies_ms)),
            float(np.mean(migration)) if migration else float("nan"),
        )
    return table


def fig9b_latencies_vs_supernodes(supernode_counts=(24, 48, 96),
                                  num_players: int = 800,
                                  seed: int = 0) -> ResultTable:
    """Fig. 9(b): the same latencies as supernode deployments grow."""
    testbed = planetlab()
    table = ResultTable(
        title="Fig 9b: setup and churn latencies vs #supernodes",
        columns=["supernodes", "assignment_s", "sn_join_ms",
                 "player_join_ms", "migration_ms"])
    for num_supernodes in supernode_counts:
        system = build_system(
            "CloudFog/B", testbed, seed=seed, num_players=num_players,
            num_supernodes=num_supernodes)
        result = system.run(days=2)
        migration = _measure_migrations(system, seed)
        table.add_row(
            num_supernodes,
            float(np.mean(result.assignment_wall_times_s)),
            float(np.mean(result.supernode_join_latencies_ms)),
            float(np.mean(result.join_latencies_ms)),
            float(np.mean(migration)) if migration else float("nan"),
        )
    return table


def _measure_migrations(system: CloudFogSystem, seed: int) -> list[float]:
    """Reconnect a day's sessions, then fail 10 % of the supernodes."""
    rng = np.random.default_rng(seed)
    state = system.state
    plans = sweep.sample_plans(state, rng)
    sweep.choose_games(state, plans, rng)
    sweep.sweep_day(state, plans, rng, RunResult(), measuring=False)
    # The sweep disconnects everything at day end; re-attach one player
    # per supernode so every failure displaces someone.
    next_player = 0
    for sn in system.live_supernodes:
        if sn.has_capacity:
            while next_player in sn.connected:
                next_player += 1
            if next_player >= system.topology.num_players:
                break
            sn.connect(next_player)
            next_player += 1
    count = max(1, len(system.live_supernodes) // 10)
    return system.fail_supernodes(count, rng)


# ---------------------------------------------------------------------------
# Figs. 10-11: strategy ablations vs per-supernode load
# ---------------------------------------------------------------------------
def _load_sweep(strategy_field: str, loads, num_players, seed, days,
                upload_for_load, capacity_slack: float = 1.0) -> ResultTable:
    names = {"reputation_selection": ("Fig 10", "CloudFog-reputation"),
             "rate_adaptation": ("Fig 11", "CloudFog-adapt")}
    fig_name, on_label = names[strategy_field]
    table = ResultTable(
        title=f"{fig_name}: % satisfied players vs per-supernode load",
        columns=["players_per_supernode", "CloudFog/B", on_label])
    for load in loads:
        # Size the deployment so supernodes carry ~load players each at
        # the evening peak; extra slack leaves room to steer around
        # misbehaving supernodes.
        slots_needed = int(num_players * 0.45 * capacity_slack)
        num_supernodes = max(4, int(np.ceil(slots_needed / load)))
        row = [load]
        for enabled in (False, True):
            config = cloudfog_basic(
                num_players=num_players,
                num_supernodes=num_supernodes,
                supernode_capacity_override=load,
                supernode_upload_override_mbps=upload_for_load(load),
                seed=seed,
            ).with_(strategies=_single_strategy(strategy_field, enabled))
            result = run_config(config, days=days,
                                label=on_label if enabled else "CloudFog/B")
            row.append(result.mean_satisfied_ratio)
        table.add_row(*row)
    return table


def _single_strategy(field: str, enabled: bool):
    from ..core.config import StrategyFlags
    flags = {f: False for f in ("reputation_selection", "rate_adaptation",
                                "social_assignment", "dynamic_provisioning")}
    flags[field] = enabled
    return StrategyFlags(**flags)


def fig10_reputation(loads=(5, 10, 15, 20, 25), num_players: int = 400,
                     seed: int = 0, days: int = 24) -> ResultTable:
    """Fig. 10: satisfied players, with vs without reputation selection.

    ``days`` defaults to 24: the paper's 3-week reputation warm-up plus
    three measured days.  Supernode uploads scale with the assigned load
    (adequate when honest), so the stressor is *willingness* — the §4.1
    throttling classes — which is exactly what reputation detects.
    """
    return _load_sweep("reputation_selection", loads, num_players, seed,
                       days, upload_for_load=lambda load: 1.8 * load,
                       capacity_slack=1.5)


def fig11_adaptation(loads=(5, 10, 15, 20, 25), num_players: int = 600,
                     seed: int = 0, days: int = 3) -> ResultTable:
    """Fig. 11: satisfied players, with vs without rate adaptation.

    Supernode hardware is fixed desktop-class (15 Mbit/s up), so the
    per-player share shrinks as the supernode supports more players —
    the congestion adaptation is designed to survive.
    """
    return _load_sweep("rate_adaptation", loads, num_players, seed, days,
                       upload_for_load=lambda load: 15.0)


# ---------------------------------------------------------------------------
# Fig. 12: social server assignment
# ---------------------------------------------------------------------------
def fig12_server_assignment(server_counts=(5, 10, 15, 20),
                            num_players: int = 600, seed: int = 0,
                            days: int = 2) -> ResultTable:
    """Fig. 12: response latency split, random vs social assignment."""
    table = ResultTable(
        title="Fig 12: server latency vs #servers per datacenter",
        columns=["servers_per_dc", "server_ms_w/o", "other_ms_w/o",
                 "server_ms_w/", "other_ms_w/"])
    for servers in server_counts:
        row: list = [servers]
        for social in (False, True):
            config = cloudfog_basic(
                num_players=num_players,
                num_supernodes=max(4, int(num_players * 0.06)),
                servers_per_datacenter=servers,
                seed=seed,
            ).with_(strategies=_single_strategy("social_assignment", social))
            result = run_config(
                config, days=days,
                label="CloudFog-social" if social else "CloudFog/B")
            server_ms = result.mean_server_latency_ms
            other_ms = result.mean_response_latency_ms - server_ms
            row.extend([server_ms, other_ms])
        table.add_row(*row)
    return table


# ---------------------------------------------------------------------------
# Figs. 13-15: dynamic supernode provisioning under churn
# ---------------------------------------------------------------------------
def _provisioning_results(peak_rates, offpeak_rate, num_players, seed, days
                          ) -> dict[tuple[float, str], RunResult]:
    results: dict[tuple[float, str], RunResult] = {}
    for peak_rate in peak_rates:
        for label, dynamic in (("CloudFog/B", False),
                               ("CloudFog-provision", True)):
            config = cloudfog_basic(
                num_players=num_players,
                # Fixed deployment sized for the lowest arrival rate.
                num_supernodes=max(
                    4, int(min(peak_rates) * 60 * 5 * 0.5 / 5)),
                provisioning_window_hours=8,
                seed=seed,
            ).with_(strategies=_single_strategy(
                "dynamic_provisioning", dynamic))
            system = CloudFogSystem(config)
            system.set_arrival_rates(offpeak_rate, peak_rate)
            with obs.get_tracer().span("run_variant", variant=label,
                                       seed=seed, days=days,
                                       peak_rate=peak_rate):
                results[(peak_rate, label)] = system.run(days=days)
    return results


def _provisioning_table(title, unit, metric, peak_rates, offpeak_rate,
                        num_players, seed, days) -> ResultTable:
    results = _provisioning_results(peak_rates, offpeak_rate, num_players,
                                    seed, days)
    table = ResultTable(
        title=title,
        columns=["peak_arrivals_per_min", "CloudFog/B", "CloudFog-provision"])
    for rate in peak_rates:
        table.add_row(rate,
                      metric(results[(rate, "CloudFog/B")]),
                      metric(results[(rate, "CloudFog-provision")]))
    table.add_note(f"column unit: {unit}; off-peak rate "
                   f"{offpeak_rate}/min; days={days} (ARIMA needs a "
                   f"one-week season before it provisions)")
    return table


def fig13_provisioning_bandwidth(peak_rates=(1.0, 2.0, 4.0),
                                 offpeak_rate: float = 0.5,
                                 num_players: int = 3000, seed: int = 0,
                                 days: int = 9) -> ResultTable:
    """Fig. 13: cloud bandwidth vs peak arrival rate."""
    return _provisioning_table(
        "Fig 13: cloud bandwidth under churn", "Mbit/s",
        lambda r: r.mean_cloud_bandwidth_mbps,
        peak_rates, offpeak_rate, num_players, seed, days)


def fig14_provisioning_latency(peak_rates=(1.0, 2.0, 4.0),
                               offpeak_rate: float = 0.5,
                               num_players: int = 3000, seed: int = 0,
                               days: int = 9) -> ResultTable:
    """Fig. 14: response latency vs peak arrival rate."""
    return _provisioning_table(
        "Fig 14: response latency under churn", "ms",
        lambda r: r.mean_response_latency_ms,
        peak_rates, offpeak_rate, num_players, seed, days)


def fig15_provisioning_continuity(peak_rates=(1.0, 2.0, 4.0),
                                  offpeak_rate: float = 0.5,
                                  num_players: int = 3000, seed: int = 0,
                                  days: int = 9) -> ResultTable:
    """Fig. 15: continuity vs peak arrival rate."""
    return _provisioning_table(
        "Fig 15: continuity under churn", "fraction",
        lambda r: r.mean_continuity,
        peak_rates, offpeak_rate, num_players, seed, days)


# ---------------------------------------------------------------------------
# Fig. 16: economics
# ---------------------------------------------------------------------------
def fig16a_supernode_economics(hours=(2, 4, 8, 12, 16, 20, 24),
                               upload_mbps: float = 10.0,
                               utilization: float = 0.6) -> ResultTable:
    """Fig. 16(a): rewards, costs and profits vs daily running hours."""
    model = IncentiveModel()
    table = ResultTable(
        title="Fig 16a: supernode rewards/costs/profits per day",
        columns=["hours_per_day", "rewards_usd", "costs_usd", "profits_usd"])
    for h in hours:
        economics = daily_economics(model, upload_mbps, utilization, h)
        table.add_row(h, economics.rewards_usd, economics.costs_usd,
                      economics.profit_usd)
    table.add_note(f"supernode upload {upload_mbps} Mbit/s at "
                   f"{utilization:.0%} utilisation; $1/GB reward; "
                   f"0.25 kW at 10.8 c/kWh")
    return table


def fig16b_provider_savings(hours=(100, 500, 1000, 2000, 4000, 8760),
                            upload_mbps: float = 4.0,
                            utilization: float = 0.8) -> ResultTable:
    """Fig. 16(b): EC2 renting fees vs supernode rewards vs savings."""
    table = ResultTable(
        title="Fig 16b: renting fees and savings for the provider",
        columns=["hours", "renting_fees_usd", "rewards_to_sn_usd",
                 "savings_usd"])
    for h in hours:
        comparison = renting_comparison(h, upload_mbps, utilization)
        table.add_row(h, comparison.renting_fees_usd,
                      comparison.rewards_to_supernode_usd,
                      comparison.savings_usd)
    table.add_note("g2.8xlarge at $2.60/h vs $1/GB supernode rewards")
    return table
