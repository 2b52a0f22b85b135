"""Multiprocess execution of sharded deployments.

The in-process :class:`~repro.sim.sharded.ShardedSimulator` interleaves the
shards of one deployment on one CPU; this module runs the *same* window
protocol across forked worker processes, one per shard, so a topology sweep
actually uses multiple cores.

Every worker rebuilds the full scenario spec with ``local_shard=i``: it owns
its clusters' processes and registers the rest as ghosts (placed in the
latency model and key registry, so cross-shard envelopes verify and the
lookahead floor is identical in every process).  Workers then advance
window by window over the very same conservative barrier grid as the
in-process kernel, exchanging cross-shard mailboxes *directly with each
other* at every barrier over a full mesh of pipes — an empty batch doubles
as the null message that lets a peer advance.  Each worker splits its own
outbox by destination shard (every worker derives the identical owner map
from the spec), and sorts the union of the batches it receives; because the
canonical ``(arrival, sender, xseq)`` order restricted to one shard's
entries equals that shard's slice of the in-process coordinator's global
injection order, results are byte-identical to serial and
in-process-sharded execution of the same spec.

The parent process only collects final results: each shard's metrics
collector, network statistics, and population counters, merged by the same
fold used in-process.  (Envelope signatures and certificates carry pickle
hooks that drop registry-identity memos; the receiving worker's key
registry is a deterministic twin, so re-verification re-derives them.)

Partition events (steady and flapping) are the one unsupported schedule
feature: their drop rules read live replica state across clusters, which a
worker process cannot see.  Specs containing partitions fall back to
in-process sharded execution (still byte-identical, just not multi-core).
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.harness.metrics import MetricsCollector
from repro.harness.scenario import FlappingPartitionEvent, PartitionEvent, ScenarioSpec
from repro.net.network import NetworkStats

#: Seconds the parent waits on a worker's final result before declaring the
#: run wedged.  Generous: it spans the whole simulation, not one window.
_RESULT_TIMEOUT = 600.0


@dataclass
class ShardedOutcome:
    """What a sharded (parallel or fallback) run produces for the runner."""

    metrics: MetricsCollector
    network_stats: NetworkStats
    population_stats: List[Dict[str, float]]
    engine: str
    #: Simulation events processed across all shards (determinism probe).
    events: int = 0


def _supports_parallel(spec: ScenarioSpec) -> bool:
    if any(
        isinstance(event, (PartitionEvent, FlappingPartitionEvent)) for event in spec.schedule
    ):
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False
    return True


def _exchange(shard_index: int, peers: dict, batches: List[list]) -> List[tuple]:
    """One barrier's peer-to-peer mailbox swap; returns the merged inbox.

    Pairwise handshakes run in peer-index order with the lower-index side
    sending first — the sequence every worker agrees on, so no two workers
    ever block sending to each other (the classic pipe-buffer deadlock).
    An empty batch is still sent: it is the null message telling the peer
    nothing earlier than the next barrier is coming.
    """
    inbox = batches[shard_index]
    for peer_index in sorted(peers):
        conn = peers[peer_index]
        try:
            if shard_index < peer_index:
                conn.send(batches[peer_index])
                inbox.extend(conn.recv())
            else:
                incoming = conn.recv()
                conn.send(batches[peer_index])
                inbox.extend(incoming)
        except (EOFError, BrokenPipeError) as exc:
            raise SimulationError(f"shard peer {peer_index} died mid-window") from exc
    inbox.sort()
    return inbox


def _worker_main(conn, peers: dict, spec: ScenarioSpec, shard_index: int) -> None:
    """One shard's window loop, synchronised with its peers at barriers."""
    try:
        deployment = spec.build(local_shard=shard_index)
        shard = deployment.shards[shard_index]
        simulator = shard.simulator
        network = shard.network
        route = deployment._shard_of_process
        num_shards = len(deployment.shards)
        deployment.start()
        until = spec.duration
        thresholds = gc.get_threshold()
        gc.set_threshold(100_000, thresholds[1], thresholds[2])
        now = 0.0
        while True:
            # Every worker derives the identical barrier sequence from the
            # spec (see ``Deployment.next_barrier``).
            barrier = deployment.next_barrier(now)
            if barrier is None or barrier > until:
                barrier = until
            simulator.run(until=math.nextafter(barrier, -math.inf))
            batches: List[list] = [[] for _ in range(num_shards)]
            for entry in network.take_outbox():
                batches[route(entry[3])].append(entry)
            for entry in _exchange(shard_index, peers, batches):
                network.deliver_cross(entry[0], entry[3], entry[4], entry[5])
            now = barrier
            if barrier >= until:
                break
        # Final inclusive pass: events at exactly ``until``.
        simulator.run(until=until)
        gc.set_threshold(*thresholds)
        conn.send(
            (
                "done",
                {
                    "metrics": shard.metrics,
                    "stats": shard.network.stats,
                    "populations": [population.stats() for population in deployment.populations],
                    "events": simulator.events_processed,
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
        events=deployment.kernel.events_processed,
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
    try:
        for index, conn in enumerate(conns):
            if not conn.poll(_RESULT_TIMEOUT):
                raise SimulationError(f"shard worker {index} did not finish in time")
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
            worker.join(timeout=30)
            if worker.is_alive():  # pragma: no cover - defensive teardown
                worker.terminate()

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
