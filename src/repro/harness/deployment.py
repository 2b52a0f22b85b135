"""Deployment builder: wires simulator, network, replicas, and clients.

A :class:`Deployment` corresponds to one experimental data point in the
paper: a set of clusters (with sizes and regions), a protocol configuration,
one workload client per cluster, and optional fault/churn schedules.  After
``run()`` the attached :class:`~repro.harness.metrics.MetricsCollector`
answers the questions the figures plot.

A process runs exactly one kernel.  In-process, that kernel hosts every
cluster; a forked shard worker (:mod:`repro.harness.parallel`) builds the
same spec with ``local_shard`` set and hosts only its own clusters.
"""

from __future__ import annotations

import bisect
import gc
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.replica import MODE_ACTIVE, MODE_IDLE, HamavaReplica
from repro.core.statemachine import ExecutionLedger
from repro.errors import ConfigurationError
from repro.harness.metrics import MetricsCollector
from repro.net.adversity import CongestionModel
from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.workload.clients import WorkloadClient
from repro.workload.population import ClientPopulation, PopulationConfig
from repro.workload.ycsb import YcsbWorkload

if TYPE_CHECKING:  # scenario.py imports this module; only the name is needed here
    from repro.harness.scenario import ScenarioSpec


class Deployment:
    """A runnable simulated deployment of the replicated system.

    One :class:`Simulator` (also exposed as ``kernel``), one network, one
    metrics collector and one execution ledger — the one copy of the total
    order the replicas execute.

    Worker-count invariance rests on two rules.  Message routing is decided
    by *owner cluster*: traffic between processes of different clusters
    always goes through the cross-cluster mailbox (in-process, a
    barrier-aligned flush event replays the forked workers' exchange),
    while intra-cluster traffic always takes the fused fast path.  And every
    worker's kernel is seeded identically, so any RNG stream derives the
    same draws wherever its owner cluster runs.

    Args:
        spec: The scenario to build; read directly (its ``schedule`` is
            installed by :meth:`ScenarioSpec.build`, not here).
        local_shard: When given, construct only the processes of the
            clusters ``spec.shards`` assigns to this worker (contiguously,
            ``position * shards // clusters``) and register the rest as
            ghosts (placed in the latency model and key registry so
            cross-worker envelopes sign/verify, but owning no port).  Used
            by forked shard workers; in-process callers leave it ``None``.
    """

    def __init__(self, spec: "ScenarioSpec", local_shard: Optional[int] = None) -> None:
        self.spec = spec
        self.config = spec.compiled_config()
        self.system_config = SystemConfig.build(spec.clusters)
        cluster_ids = self.system_config.cluster_ids()
        shards = max(1, min(int(spec.shards or 1), len(cluster_ids)))
        self.local_shard = local_shard
        self.registry = KeyRegistry(seed=spec.seed)
        #: process id -> owner cluster id; read by the network, so it must
        #: be fully populated before any process registers a port.
        self._owners: Dict[str, int] = {}
        self._worker_of_cluster: Dict[int, int] = {
            cluster_id: position * shards // len(cluster_ids)
            for position, cluster_id in enumerate(cluster_ids)
        }
        self._floor_schedule: Optional[List[Tuple[float, float]]] = None
        self._floor_starts: List[float] = []
        self._floor_schedule_resolved = False

        self.simulator = self.kernel = Simulator(seed=spec.seed)
        self.latency_model = LatencyModel()
        self.network = Network(self.simulator, self.latency_model, self.registry)
        self.network.owners = self._owners
        self.network.next_barrier = self.next_barrier
        # A worker's mailbox is drained by the forked exchange; flushing it
        # locally would deliver cross-worker envelopes to portless ghosts.
        self.network.self_flush = local_shard is None
        if spec.rtt_trace is not None:
            self.latency_model.set_trace(spec.rtt_trace)
        if spec.congestion is not None:
            self.network.congestion = CongestionModel(spec.congestion, self.latency_model)
        self.metrics = MetricsCollector()
        self.ledger = ExecutionLedger()

        self.replicas: Dict[str, HamavaReplica] = {}
        self.clients: List[WorkloadClient] = []
        self.populations: List[ClientPopulation] = []
        self._joiner_count = 0
        self._started = False
        self._build()
        for region_a, region_b, rtt_ms in spec.rtt_overrides:
            self.latency_model.set_rtt(region_a, region_b, rtt_ms)

    # ------------------------------------------------------------------ #
    # Worker topology
    # ------------------------------------------------------------------ #
    def is_local(self, cluster_id: int) -> bool:
        """Whether this process builds and runs ``cluster_id``'s processes."""
        return self.local_shard is None or self._worker_of_cluster[cluster_id] == self.local_shard

    def _resolve_floor_schedule(self) -> Optional[List[Tuple[float, float]]]:
        """The conservative lookahead: the cross-cluster latency floor(s).

        Resolved once, lazily, at the first barrier computation — after RTT
        overrides and scheduled joiners have placed every process.
        """
        if not self._floor_schedule_resolved:
            self._floor_schedule = self.latency_model.cross_group_floor_schedule(self._owners)
            self._floor_schedule_resolved = True
            if self._floor_schedule is not None:
                self._floor_starts = [start for start, _ in self._floor_schedule]
        return self._floor_schedule

    def next_barrier(self, time: float) -> Optional[float]:
        """Smallest barrier strictly after ``time`` under the floor schedule.

        The one barrier function: the in-process flush and the forked
        workers' :func:`~repro.sim.sharded.run_windows` both walk this grid,
        which is what keeps their runs byte-identical.  Without a trace the schedule is one
        segment starting at ``0.0`` and the grid is ``k * L`` for the
        smallest integer ``k`` with ``k * L > time`` — found by integer
        search, not division alone, so every caller lands on the *same*
        float (``0.0 + k * floor`` is IEEE-identical to ``k * floor``).
        With a trace the grid restarts at every floor segment and is clamped
        to the next boundary, so no lookahead window straddles a floor
        change.  Returns ``None`` when no cross-cluster pair exists (no
        barriers needed).
        """
        schedule = self._resolve_floor_schedule()
        if schedule is None:
            return None
        index = bisect.bisect_right(self._floor_starts, time) - 1
        if index < 0:
            index = 0
        start, floor = schedule[index]
        offset = time - start
        k = int(offset / floor)
        while start + k * floor <= time:
            k += 1
        while k > 1 and start + (k - 1) * floor > time:
            k -= 1
        barrier = start + k * floor
        if index + 1 < len(self._floor_starts):
            boundary = self._floor_starts[index + 1]
            if barrier > boundary:
                barrier = boundary
        return barrier

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _client_prefix(self) -> str:
        return "population" if self.spec.workload_model == "open" else "client"

    def _build(self) -> None:
        spec = self.spec
        prefix = self._client_prefix()
        # Fill the owner map for the whole topology first: ports snapshot
        # their owner at registration, and replicas register themselves in
        # their constructor, so every process id must be claimable before
        # the first replica is built.
        for cluster_id in self.system_config.cluster_ids():
            for replica_id in self.system_config.members(cluster_id):
                self._owners[replica_id] = cluster_id
            for client_index in range(spec.clients_per_cluster):
                self._owners[f"{prefix}{cluster_id}.{client_index}"] = cluster_id
        for cluster_id in self.system_config.cluster_ids():
            if not self.is_local(cluster_id):
                self._register_ghost_cluster(cluster_id)
                continue
            members = self.system_config.members(cluster_id)
            for index, replica_id in enumerate(members):
                replica = self._new_replica(replica_id, cluster_id)
                replica.is_reporter = index == 0
                region = spec.region_overrides.get(replica_id)
                if region is not None:
                    self.latency_model.place(replica_id, region)
                self.replicas[replica_id] = replica
            for client_index in range(spec.clients_per_cluster):
                if spec.workload_model == "open":
                    self._build_population(cluster_id, client_index)
                else:
                    self._build_client(cluster_id, client_index)

    def _new_replica(self, replica_id: str, cluster_id: int, mode: str = MODE_ACTIVE) -> HamavaReplica:
        return HamavaReplica(
            replica_id=replica_id,
            cluster_id=cluster_id,
            system_config=self.system_config,
            network=self.network,
            simulator=self.simulator,
            config=self.config,
            metrics=self.metrics,
            mode=mode,
            ledger=self.ledger,
        )

    def _register_ghost_cluster(self, cluster_id: int) -> None:
        """Place and key another worker's processes without building them.

        A forked shard worker still needs every remote process in the
        shared latency model (pair constants, lookahead floor) and in the
        key registry (verifying signatures on cross-worker envelopes); it
        must *not* own their ports or schedule their events.
        """
        spec = self.spec
        region = self.system_config.region_of_cluster(cluster_id)
        for replica_id in self.system_config.members(cluster_id):
            self.latency_model.place(replica_id, spec.region_overrides.get(replica_id, region))
            self.registry.register(replica_id)
        prefix = self._client_prefix()
        for client_index in range(spec.clients_per_cluster):
            client_id = f"{prefix}{cluster_id}.{client_index}"
            self.latency_model.place(client_id, region)
            self.registry.register(client_id)

    def _build_client(self, cluster_id: int, client_index: int) -> None:
        spec = self.spec
        client_id = f"client{cluster_id}.{client_index}"
        workload = YcsbWorkload(spec.workload, self.simulator.rng.child(f"workload/{client_id}"))
        client = WorkloadClient(
            client_id=client_id,
            simulator=self.simulator,
            network=self.network,
            workload=workload,
            target_replicas=self.system_config.members(cluster_id),
            threads=spec.client_threads,
            metrics=self.metrics,
            retry_timeout=self.config.retry_timeout,
        )
        self.network.register(client, self.system_config.region_of_cluster(cluster_id))
        self.clients.append(client)

    def _build_population(self, cluster_id: int, client_index: int) -> None:
        spec = self.spec
        client_id = f"population{cluster_id}.{client_index}"
        workload = YcsbWorkload(spec.workload, self.simulator.rng.child(f"workload/{client_id}"))
        config = spec.population.copy() if spec.population is not None else PopulationConfig()
        population = ClientPopulation(
            client_id=client_id,
            simulator=self.simulator,
            network=self.network,
            workload=workload,
            target_replicas=self.system_config.members(cluster_id),
            config=config,
            metrics=self.metrics,
            retry_timeout=self.config.retry_timeout,
        )
        self.network.register(population, self.system_config.region_of_cluster(cluster_id))
        self.populations.append(population)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start all replicas and clients (idempotent)."""
        if self._started:
            return
        self._started = True
        for replica in self.replicas.values():
            replica.start()
        for client in self.clients:
            client.start()
        for population in self.populations:
            population.start()

    def run(self, duration: float, warmup: float = 0.0) -> MetricsCollector:
        """Run the deployment for ``duration`` virtual seconds.

        The cyclic garbage collector is tuned for the duration of the run:
        simulation hot loops allocate heavily (events, envelopes, digests)
        but almost entirely acyclically, so objects die by refcount and the
        default gen-0 threshold (700 net allocations) just re-scans the
        long-lived deployment graph thousands of times per simulated second.
        A larger threshold recovers a few percent of wall time; thresholds
        are restored afterwards, and collection timing cannot affect the
        simulation's deterministic results.

        Args:
            duration: Total virtual time to simulate.
            warmup: Completions before this time are excluded from metrics
                queries (the paper reports the last minute of 3-minute runs).
        """
        self.start()
        thresholds = gc.get_threshold()
        gc.set_threshold(100_000, thresholds[1], thresholds[2])
        try:
            self.simulator.run_for(duration)
        finally:
            gc.set_threshold(*thresholds)
        self.metrics.canonicalize()
        self.metrics.set_window(warmup, self.simulator.now)
        return self.metrics

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def replica(self, replica_id: str) -> HamavaReplica:
        """Look up a replica by id."""
        if replica_id not in self.replicas:
            raise ConfigurationError(f"unknown replica {replica_id!r}")
        return self.replicas[replica_id]

    def cluster_replicas(self, cluster_id: int) -> List[HamavaReplica]:
        """All replicas that consider themselves members of a cluster."""
        return [
            replica
            for replica in self.replicas.values()
            if replica.cluster_id == cluster_id and replica.mode != MODE_IDLE
        ]

    def leader_of(self, cluster_id: int) -> HamavaReplica:
        """The current leader of a cluster, as seen by its first member."""
        members = sorted(self.system_config.members(cluster_id))
        reporter = self.replicas[members[0]]
        return self.replicas[reporter.leader]

    def active_view(self, cluster_id: int) -> set:
        """The membership view of a cluster held by its reporter replica."""
        members = sorted(self.system_config.members(cluster_id))
        return set(self.replicas[members[0]].view[cluster_id])

    # ------------------------------------------------------------------ #
    # Churn scheduling
    # ------------------------------------------------------------------ #
    def add_joiner(
        self,
        cluster_id: int,
        at_time: float,
        replica_id: Optional[str] = None,
        region: Optional[str] = None,
    ) -> Optional[HamavaReplica]:
        """Create an idle replica that will request to join ``cluster_id``.

        Returns the new replica so callers can inspect it after the run
        (``None`` from a shard worker when another worker runs the cluster).
        """
        self._joiner_count += 1
        replica_id = replica_id or f"joiner{self._joiner_count}"
        # Joiners are owned by the cluster they join — in every worker
        # layout, including the in-process one, so their cross-cluster
        # traffic is mailboxed identically everywhere.
        self._owners[replica_id] = cluster_id
        if not self.is_local(cluster_id):
            placement = region or self.system_config.region_of_cluster(cluster_id)
            self.latency_model.place(replica_id, placement)
            self.registry.register(replica_id)
            return None
        replica = self._new_replica(replica_id, cluster_id, MODE_IDLE)
        if region is not None:
            self.latency_model.place(replica_id, region)
        self.replicas[replica_id] = replica
        replica.start()
        self.simulator.schedule_at(
            at_time,
            lambda r=replica, cid=cluster_id: r.requester.request_join(cid),
            label=f"join:{replica_id}",
        )
        return replica

    def schedule_leave(self, replica_id: str, at_time: float) -> None:
        """Schedule an existing replica's leave request."""
        if replica_id not in self.replicas and self.local_shard is not None:
            return  # owned by another worker process
        replica = self.replica(replica_id)
        self.simulator.schedule_at(at_time, replica.requester.request_leave, label=f"leave:{replica_id}")


__all__ = ["Deployment"]
