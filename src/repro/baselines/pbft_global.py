"""Non-clustered PBFT baseline: one consensus group spanning all replicas.

Classical Byzantine replication (PBFT and descendants) runs a single group
over every replica, so each decision needs global all-to-all communication —
the ``O(2(zn)^2)`` row of the paper's Table I.  Clustered replication's whole
motivation (E0/E1) is that this scales poorly with node count and distance.

The baseline reuses the Hamava replica with a single "cluster" that contains
every node; individual replicas can be placed in different regions through
``region_overrides`` so the group genuinely spans the WAN.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.builder import Scenario


def global_pbft_scenario(
    total_nodes: int,
    regions: Optional[Sequence[str]] = None,
    name: str = "pbft_global",
    engine: str = "bftsmart",
) -> Scenario:
    """A fluent builder for the single-group baseline spanning ``regions``.

    The one "cluster" contains every replica; replicas are spread
    round-robin across the regions through per-replica placement, so the
    group genuinely spans the WAN.
    """
    regions = list(regions or ["us-west1"])
    scenario = Scenario(name).clusters((total_nodes, regions[0])).engine(engine)
    for index in range(total_nodes):
        scenario.place(f"c0/r{index}", regions[index % len(regions)])
    return scenario


__all__ = ["global_pbft_scenario"]
