"""Multiprocess execution of sharded deployments: one kernel per worker.

The clusters of one deployment are split across forked worker processes,
one per shard, so a topology sweep actually uses multiple cores.  Every
worker rebuilds the full spec with ``local_shard=i``: it owns its clusters'
processes and registers the rest as ghosts (placed in the latency model and
key registry, so cross-worker envelopes verify and the lookahead floor is
identical in every process).  Workers advance over the same barrier grid as
the in-process flush (:func:`~repro.sim.sharded.run_windows` over
``Deployment.next_barrier``), swapping cross-cluster mailboxes *directly
with each other* at every barrier over a full mesh of pipes — an empty
batch doubles as the null message that lets a peer advance.  Each worker
splits its outbox by destination worker and injects what it receives in
canonical ``(arrival, sender, xseq)`` order, which restricted to one
worker's entries is that worker's slice of the in-process flush order: the
results are byte-identical to the serial run of the same spec.

The parent only merges the workers' metrics, network statistics and
population counters.  (Envelope signatures, certificates, bundles and
collection proofs carry pickle hooks that drop registry-identity memos; the
receiving worker's key registry is a deterministic twin, so re-verification
re-derives them.)

Events that read live replicas of several clusters
(:attr:`~repro.harness.scenario.ScenarioEvent.reads_all_clusters`, the
steady and flapping partitions) cannot be split across workers; specs
containing them run in one process (still byte-identical).
"""

from __future__ import annotations

import gc
import multiprocessing
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.harness.metrics import MetricsCollector
from repro.harness.scenario import ScenarioSpec
from repro.net.network import NetworkStats
from repro.sim.sharded import run_windows

#: Seconds the parent waits on a worker's final result before declaring the
#: run wedged.  Generous: it spans the whole simulation, not one window.
_RESULT_TIMEOUT = 600.0

#: Wall seconds a worker waits on one peer at one barrier before declaring
#: that peer wedged.  A window is milliseconds of virtual time, so a minute
#: of silence is a hang, not a slow peer.
_BARRIER_TIMEOUT = 60.0


@dataclass
class ShardedOutcome:
    """What a sharded (parallel or fallback) run produces for the runner."""

    metrics: MetricsCollector
    network_stats: NetworkStats
    population_stats: List[Dict[str, float]]
    engine: str
    #: Simulation events processed across all workers (determinism probe).
    events: int = 0


def _supports_parallel(spec: ScenarioSpec) -> bool:
    if any(event.reads_all_clusters for event in spec.schedule):
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False
    return True


def _exchange(shard_index: int, peers: dict, batches: List[list], window_start: float) -> List[tuple]:
    """One barrier's peer-to-peer mailbox swap; returns the merged inbox.

    Pairwise handshakes run in peer-index order with the lower-index side
    sending first — the sequence every worker agrees on, so no two workers
    ever block sending to each other (the classic pipe-buffer deadlock).
    An empty batch is still sent: it is the null message telling the peer
    nothing earlier than the next barrier is coming.  A peer silent for
    :data:`_BARRIER_TIMEOUT` is wedged, and the error names it.
    """
    inbox = batches[shard_index]
    for peer_index in sorted(peers):
        conn = peers[peer_index]
        try:
            if shard_index < peer_index:
                conn.send(batches[peer_index])
            if not conn.poll(_BARRIER_TIMEOUT):
                raise SimulationError(
                    f"shard {shard_index}: peer shard {peer_index} silent for "
                    f"{_BARRIER_TIMEOUT} s wall at the barrier closing the window "
                    f"that starts at {window_start}"
                )
            incoming = conn.recv()
            if shard_index > peer_index:
                conn.send(batches[peer_index])
            inbox.extend(incoming)
        except (EOFError, BrokenPipeError) as exc:
            raise SimulationError(f"shard peer {peer_index} died mid-window") from exc
    return inbox


def _inject(network, inbox: List[tuple], window_start: float) -> None:
    """Deliver a barrier's inbox in canonical order, checking the lookahead.

    ``(arrival, sender, xseq)`` is a total order — identical to the
    in-process flush's sort — so injection order, and with it every
    receiver CPU slot, is worker-count invariant.  An envelope arriving
    before the window it was sent in started means the destination already
    ran past it: the lookahead was too large for the topology.
    """
    inbox.sort()
    if inbox and inbox[0][0] < window_start:
        arrival, sender = inbox[0][:2]
        raise SimulationError(
            f"conservative lookahead violated: cross-shard message from {sender!r} "
            f"arrives at {arrival}, before the window start {window_start} "
            "(lookahead too large for the topology)"
        )
    for arrival, _sender, _xseq, destination, envelope, fused in inbox:
        network.deliver_cross(arrival, destination, envelope, fused)


def _worker_main(conn, peers: dict, spec: ScenarioSpec, shard_index: int) -> None:
    """One worker's window loop, synchronised with its peers at barriers."""
    try:
        deployment = spec.build(local_shard=shard_index)
        network = deployment.network
        worker_of_cluster, owners = deployment._worker_of_cluster, deployment._owners
        workers = len(peers) + 1

        def exchange(window_start: float) -> None:
            batches: List[list] = [[] for _ in range(workers)]
            for entry in network.take_outbox():
                batches[worker_of_cluster[owners[entry[3]]]].append(entry)
            _inject(network, _exchange(shard_index, peers, batches, window_start), window_start)

        deployment.start()
        thresholds = gc.get_threshold()
        gc.set_threshold(100_000, thresholds[1], thresholds[2])
        # Every worker derives the identical barrier sequence from the spec.
        run_windows(deployment.simulator, deployment.next_barrier, spec.duration, exchange)
        gc.set_threshold(*thresholds)
        conn.send(
            (
                "done",
                {
                    "metrics": deployment.metrics,
                    "stats": network.stats,
                    "populations": [population.stats() for population in deployment.populations],
                    "events": deployment.simulator.events_processed,
                },
            )
        )
    except Exception:  # noqa: BLE001 - shipped to the parent as the payload
        try:
            conn.send(("error", f"shard {shard_index}:\n{traceback.format_exc()}"))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        for peer_conn in peers.values():
            peer_conn.close()
        conn.close()


def _run_in_process(spec: ScenarioSpec) -> ShardedOutcome:
    deployment = spec.build()
    metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
    return ShardedOutcome(
        metrics=metrics,
        network_stats=deployment.network.stats,
        population_stats=[population.stats() for population in deployment.populations],
        engine=deployment.config.engine,
        events=deployment.simulator.events_processed,
    )


def run_sharded_parallel(spec: ScenarioSpec) -> ShardedOutcome:
    """Run one spec with its shards in forked worker processes.

    Falls back to in-process execution (identical results) when the spec
    effectively has fewer than two shards, schedules a partition, or the
    platform cannot fork.
    """
    spec.validate()
    num_shards = max(1, min(int(spec.shards or 1), len(spec.clusters)))
    if num_shards < 2 or not _supports_parallel(spec):
        return _run_in_process(spec)

    context = multiprocessing.get_context("fork")
    # Full mesh: one duplex pipe per worker pair, plus one to the parent.
    mesh: Dict[tuple, tuple] = {
        (low, high): context.Pipe()
        for low in range(num_shards)
        for high in range(low + 1, num_shards)
    }
    conns = []
    workers = []
    for index in range(num_shards):
        parent_conn, child_conn = context.Pipe()
        peers = {}
        for (low, high), (low_end, high_end) in mesh.items():
            if index == low:
                peers[high] = low_end
            elif index == high:
                peers[low] = high_end
        worker = context.Process(
            target=_worker_main,
            args=(child_conn, peers, spec, index),
            daemon=True,
            name=f"shard-{index}",
        )
        worker.start()
        child_conn.close()
        conns.append(parent_conn)
        workers.append(worker)
    for low_end, high_end in mesh.values():
        low_end.close()
        high_end.close()

    results: List[Optional[dict]] = [None] * num_shards
    # First word from any worker: one that failed is heard at once, not
    # after the workers ahead of it in index order (one may be wedged).
    pending = {conn: index for index, conn in enumerate(conns)}
    try:
        while pending:
            ready = wait(list(pending), timeout=_RESULT_TIMEOUT)
            if not ready:
                raise SimulationError(f"shard workers {sorted(pending.values())} did not finish in time")
            for conn in ready:
                index = pending.pop(conn)
                try:
                    kind, payload = conn.recv()
                except EOFError as exc:
                    raise SimulationError(f"shard worker {index} died mid-run") from exc
                if kind == "error":
                    raise SimulationError(f"shard worker failed:\n{payload}")
                results[index] = payload
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            # After a failure the others may be wedged: do not wait on them.
            worker.join(timeout=0 if pending else 30)
            if worker.is_alive():
                worker.terminate()
                worker.join()

    metrics = MetricsCollector()
    metrics.merge_from([result["metrics"] for result in results])
    metrics.set_window(spec.warmup, spec.duration)
    stats = NetworkStats()
    for result in results:
        stats.merge(result["stats"])
    population_stats = [entry for result in results for entry in result["populations"]]
    return ShardedOutcome(
        metrics=metrics,
        network_stats=stats,
        population_stats=population_stats,
        engine=spec.compiled_config().engine,
        events=sum(result["events"] for result in results),
    )


__all__ = ["ShardedOutcome", "run_sharded_parallel"]
