"""Importable helpers shared across the test suite.

These used to live in ``conftest.py``, but test modules importing them via
``from conftest import ...`` resolved whichever ``conftest.py`` appeared
first on ``sys.path`` (the benchmarks' one, breaking collection).  A
uniquely named module keeps the import unambiguous.
"""

from __future__ import annotations

from typing import Callable, Iterable, Tuple

from repro.harness.builder import Scenario
from repro.harness.deployment import Deployment
from repro.harness.scenario import ScenarioSpec

#: Short fault-detection and retry timeouts for tests (``HamavaConfig`` fields).
FAST_TIMEOUTS = {"remote_timeout": 2.0, "instance_timeout": 2.0, "brd_timeout": 2.0, "retry_timeout": 2.0}


def members_fn(members: Iterable[str]) -> Callable[[], Tuple[str, ...]]:
    """A ``members_fn`` stub honouring the sorted-tuple contract.

    The engines, BRD, and leader election no longer defensively re-sort
    membership (see ``consensus/interface.py``), so every stub handed to
    them must return a *sorted tuple* — this helper replaces the old
    ``lambda: list(members)`` stubs, which returned unsorted mutable lists.
    """
    frozen = tuple(sorted(members))
    return lambda: frozen


def small_deployment(
    clusters=((4, "us-west1"), (4, "us-west1")),
    engine: str = "hotstuff",
    seed: int = 11,
    client_threads: int = 4,
    **spec_kwargs,
) -> Deployment:
    """Build a small two-cluster deployment suitable for integration tests.

    ``spec_kwargs`` are :class:`ScenarioSpec` fields — pass ``schedule=[...]``
    to inject faults and churn.
    """
    return ScenarioSpec(
        clusters=list(clusters),
        engine=engine,
        config_overrides=dict(FAST_TIMEOUTS),
        seed=seed,
        client_threads=client_threads,
        **spec_kwargs,
    ).build()


def silent_inter_scenario() -> Scenario:
    """4+4 across two regions; cluster 1's leader goes ``silent_inter`` at 0.4 s.

    Cluster 0 times out on cluster 1 (1-s timeouts), gathers an
    ``LComplaint`` quorum and sends ``RComplaint``s across the WAN — and, in
    a two-shard layout, across the shard boundary, carrying the envelope
    signatures of the quorum — so cluster 1 rotates its leader within the run.
    """
    return (
        Scenario("silent-inter")
        .clusters((4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .timeouts(1.0)
        .config(retry_timeout=1.0)
        .byzantine_leader(1, at=0.4)
        .duration(3.0, warmup=0.0)
        .seeds(31)
    )


__all__ = ["FAST_TIMEOUTS", "members_fn", "silent_inter_scenario", "small_deployment"]
