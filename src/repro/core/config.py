"""Deployment and protocol configuration.

Two layers of configuration exist:

* :class:`SystemConfig` — *who* is in the system: the clusters, their
  members, and the regions they live in.  This is only the *initial*
  configuration; each replica maintains its own evolving view as
  reconfigurations execute.  The member sets in those views are immutable
  and shared: :meth:`SystemConfig.shared_membership` hands every replica
  the same ``frozenset`` (and sorted tuple) for equal memberships.
* :class:`HamavaConfig` — *how* the protocol behaves: timers, which local
  ordering engine to use, and whether reconfigurations run in
  the parallel workflow (Hamava) or inside the transaction ordering (the
  single-workflow baseline of experiment E5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.errors import ConfigurationError


def failure_threshold(cluster_size: int) -> int:
    """The paper's failure threshold: ``f_j = ⌊(|C_j| - 1) / 3⌋``."""
    if cluster_size <= 0:
        return 0
    return (cluster_size - 1) // 3


@dataclass
class ClusterSpec:
    """Static description of one cluster in the initial configuration.

    Attributes:
        cluster_id: Numeric id; also the predefined execution order (stage 3).
        region: Region every member is placed in (clusters are intra-region
            in the paper's deployments).
        replicas: Replica identifiers, e.g. ``["c0/r0", "c0/r1", ...]``.
    """

    cluster_id: int
    region: str
    replicas: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of replicas in the cluster."""
        return len(self.replicas)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the spec is unusable."""
        if self.size < 1:
            raise ConfigurationError(f"cluster {self.cluster_id} has no replicas")
        if len(set(self.replicas)) != self.size:
            raise ConfigurationError(f"cluster {self.cluster_id} has duplicate replica ids")


@dataclass
class SystemConfig:
    """The initial system configuration: all clusters and their members."""

    clusters: Dict[int, ClusterSpec] = field(default_factory=dict)
    #: Memo of every membership seen: contents -> (shared set, sorted tuple).
    _memberships: Dict[FrozenSet[str], Tuple[FrozenSet[str], Tuple[str, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def build(cls, sizes_and_regions: Iterable[tuple], prefix: str = "c") -> "SystemConfig":
        """Construct a configuration from ``[(size, region), ...]`` tuples.

        Replica ids are generated as ``"{prefix}{cluster}/r{index}"``.
        """
        clusters: Dict[int, ClusterSpec] = {}
        for cluster_id, (size, region) in enumerate(sizes_and_regions):
            replicas = [f"{prefix}{cluster_id}/r{i}" for i in range(size)]
            clusters[cluster_id] = ClusterSpec(cluster_id=cluster_id, region=region, replicas=replicas)
        config = cls(clusters=clusters)
        config.validate()
        return config

    def validate(self) -> None:
        """Validate every cluster spec and cross-cluster uniqueness."""
        if not self.clusters:
            raise ConfigurationError("a system needs at least one cluster")
        seen: set = set()
        for spec in self.clusters.values():
            spec.validate()
            overlap = seen.intersection(spec.replicas)
            if overlap:
                raise ConfigurationError(f"replicas {sorted(overlap)} appear in multiple clusters")
            seen.update(spec.replicas)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def cluster_ids(self) -> List[int]:
        """Sorted cluster identifiers."""
        return sorted(self.clusters)

    def members(self, cluster_id: int) -> List[str]:
        """Sorted members of one cluster."""
        return sorted(self.clusters[cluster_id].replicas)

    def region_of_cluster(self, cluster_id: int) -> str:
        """Region of a cluster."""
        return self.clusters[cluster_id].region

    def initial_view(self) -> Dict[int, FrozenSet[str]]:
        """The membership view replicas start from: ``{cluster: members}``.

        A fresh dict per call over shared immutable member sets, so a
        replica replaces a cluster's set when its membership changes.
        """
        return {cid: self.shared_membership(spec.replicas) for cid, spec in self.clusters.items()}

    def _membership(self, members: Iterable[str]) -> Tuple[FrozenSet[str], Tuple[str, ...]]:
        key = frozenset(members)
        entry = self._memberships.get(key)
        if entry is None:
            entry = self._memberships[key] = (key, tuple(sorted(key)))
        return entry

    def shared_membership(self, members: Iterable[str]) -> FrozenSet[str]:
        """The one ``frozenset`` every replica holds for these members."""
        return self._membership(members)[0]

    def sorted_membership(self, members: Iterable[str]) -> Tuple[str, ...]:
        """The one sorted member tuple every replica holds for these members."""
        return self._membership(members)[1]


@dataclass
class HamavaConfig:
    """Protocol parameters for a Hamava deployment.

    Attributes:
        engine: Local ordering engine name (``"hotstuff"``,
            ``"hotstuff_chained"`` or ``"bftsmart"``).
        remote_timeout: ``Δ`` — how long replicas wait for a remote cluster's
            operations before starting the remote leader change (paper: 20 s).
        brd_timeout: How long BRD waits for delivery before complaining.
        instance_timeout: Seconds a replica waits for a local ordering
            decision before complaining about the local leader (the paper's
            experiments use large timeouts, e.g. 20 s, to avoid spurious
            view changes).
        parallel_reconfig: ``True`` runs reconfigurations in the dedicated
            workflow (Hamava); ``False`` orders them through the transaction
            consensus (the single-workflow baseline of E5.2).
        retry_timeout: Client-side retransmission timeout for lost writes.
        pipeline_local_ordering: When ``True`` the leader starts ordering the
            next round's batch as soon as the current round's local ordering
            finishes, overlapping it with inter-cluster communication and
            execution.  Hamava keeps this off (its reconfiguration round
            barrier requires aligned rounds); the GeoBFT baseline turns it on.
        read_leases: When ``True`` the cluster leader periodically grants
            read leases (see :class:`~repro.core.messages.ReadLeaseGrant`);
            lease-holding replicas answer batched reads locally without any
            consensus involvement, and lease misses forward to the leader.
            Off by default — the closed-loop paper-fidelity path is
            unaffected unless a scenario opts in.

    The batch size, the batch timeout and the lease duration are constants
    of :mod:`repro.core.replica`.
    """

    engine: str = "hotstuff"
    remote_timeout: float = 20.0
    brd_timeout: float = 20.0
    instance_timeout: float = 20.0
    parallel_reconfig: bool = True
    retry_timeout: float = 60.0
    pipeline_local_ordering: bool = False
    read_leases: bool = False

    def with_engine(self, engine: str) -> "HamavaConfig":
        """A copy of this configuration using a different ordering engine."""
        return replace(self, engine=engine)


__all__ = ["ClusterSpec", "HamavaConfig", "SystemConfig", "failure_threshold"]
