"""Hamava reproduction: fault-tolerant reconfigurable geo-replication.

A pure-Python, simulation-backed reproduction of *Hamava: Fault-tolerant
Reconfigurable Geo-Replication on Heterogeneous Clusters* (ICDE 2025).

Quickstart — declare a scenario, run it, read the row::

    from repro import Scenario

    row = (
        Scenario("quickstart")
        .clusters((4, "us-west1"), (7, "europe-west3"))
        .engine("hotstuff")
        .seed(7)
        .duration(5.0, warmup=1.0)
        .spec()
        .run()
    )
    print(row.throughput, row.latency_mean)

Schedules — joins, leaves, crashes, Byzantine leaders, churn loops — are
declarative events on the same builder::

    Scenario("churny").clusters(7, 7).join(0, at=2.0).leave("r1.6", at=4.0)

Scenarios compile to serializable :class:`ScenarioSpec` objects
(``spec().to_json()`` / ``ScenarioSpec.from_json``), and multi-seed grids
run through :class:`ScenarioRunner`, optionally across worker processes::

    from repro import ScenarioRunner

    rows = ScenarioRunner(workers=4).run(scenarios, seeds=[1, 2, 3])
    ScenarioRunner.save(rows, "results.json")

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
reproduction of every table and figure in the paper.
"""

from repro.core.config import ClusterSpec, HamavaConfig, SystemConfig
from repro.core.replica import ByzantineBehavior, HamavaReplica
from repro.core.types import ReconfigRequest, Transaction, join_request, leave_request
from repro.harness.builder import Scenario
from repro.harness.deployment import Deployment
from repro.harness.faults import FaultInjector
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import ResultRow, ScenarioRunner, run_scenario
from repro.harness.scenario import (
    ByzantineEvent,
    ChurnLoop,
    ClockSkewEvent,
    CrashEvent,
    FlappingPartitionEvent,
    GrayReplicaEvent,
    JoinEvent,
    LeaveEvent,
    PartitionEvent,
    RegionOutageEvent,
    ScenarioSpec,
    register_preset,
)
from repro.net.adversity import CongestionConfig, CrossTrafficStream, RttTrace

__version__ = "1.1.0"

from repro.workload.population import ClientPopulation, PopulationConfig

__all__ = [
    "ByzantineBehavior",
    "ByzantineEvent",
    "ChurnLoop",
    "ClientPopulation",
    "ClockSkewEvent",
    "ClusterSpec",
    "CongestionConfig",
    "CrashEvent",
    "CrossTrafficStream",
    "Deployment",
    "FaultInjector",
    "FlappingPartitionEvent",
    "GrayReplicaEvent",
    "HamavaConfig",
    "HamavaReplica",
    "JoinEvent",
    "LeaveEvent",
    "MetricsCollector",
    "PartitionEvent",
    "PopulationConfig",
    "ReconfigRequest",
    "RegionOutageEvent",
    "ResultRow",
    "RttTrace",
    "Scenario",
    "ScenarioRunner",
    "ScenarioSpec",
    "SystemConfig",
    "Transaction",
    "join_request",
    "leave_request",
    "register_preset",
    "run_scenario",
    "__version__",
]
