"""Simulation substrate: discrete-event engine, cycle harness, RNG, probes."""

from .engine import (
    AllOf,
    AnyOf,
    Condition,
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from .cycles import PAPER_SCHEDULE, Clock, CycleScheduler, Schedule
from .monitor import Counter, Series, Summary, summarize
from .rng import EmpiricalDistribution, RngFactory, pareto_capacities, powerlaw_counts

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "PAPER_SCHEDULE",
    "Clock",
    "CycleScheduler",
    "Schedule",
    "Counter",
    "Series",
    "Summary",
    "summarize",
    "EmpiricalDistribution",
    "RngFactory",
    "pareto_capacities",
    "powerlaw_counts",
]
