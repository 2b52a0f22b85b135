"""Experiment harness: scenarios, deployments, metrics, faults, experiments.

There is one description of an experiment — :class:`ScenarioSpec` — and one
of each fault — its event class.  The fluent :class:`Scenario` builder
compiles to specs, and the :class:`ScenarioRunner` executes spec lists
across seeds (optionally over a process pool) into typed :class:`ResultRow`
results.  Underneath, a :class:`Deployment` reads the spec and assembles
simulator + network + replicas + clients, each schedule event installs
itself through the :class:`FaultInjector`, and the
:class:`MetricsCollector` answers the questions the paper's figures plot.
Runners for every experiment in the evaluation (E0–E8) live in
:mod:`repro.harness.experiments`.
"""

from repro.harness.builder import Scenario
from repro.harness.deployment import Deployment
from repro.harness.faults import FaultInjector
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import ResultRow, ScenarioRunner, run_scenario
from repro.harness.scenario import (
    ByzantineEvent,
    ChurnLoop,
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    PartitionEvent,
    ScenarioSpec,
    register_preset,
)

__all__ = [
    "ByzantineEvent",
    "ChurnLoop",
    "CrashEvent",
    "Deployment",
    "FaultInjector",
    "JoinEvent",
    "LeaveEvent",
    "MetricsCollector",
    "PartitionEvent",
    "ResultRow",
    "Scenario",
    "ScenarioRunner",
    "ScenarioSpec",
    "register_preset",
    "run_scenario",
]
