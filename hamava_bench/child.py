"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition so that every repetition
pays interpreter start-up, imports and deployment construction from cold
(that is ``setup_s``) and no repetition inherits another's heap.  The timed
window is ``Deployment.run`` alone — or ``run_sharded_parallel`` for a
forked twin, fork and worker builds included, because a user pays them.

The simulator is deterministic per seed, so every repetition does the same
work between any two simulated instants.  ``SLICES`` probe events, scheduled
through the public ``Simulator.schedule_at``, read the host clock at equal
steps of simulated time; the parent takes, slice by slice, the fastest any
repetition managed, which recovers the undisturbed run time even when no
single repetition escaped the host's slow spells.

The process prints one JSON object on its last line: host times, every
simulated metric and counter (computed from the public result objects after
the clock has stopped), a fingerprint of the simulated outcome, and, when
asked, the correctness verdicts or the per-layer profile.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import sys
import time
from math import ceil
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from hamava_bench.layers import attribute, message_counts  # noqa: E402  (needs the path above)
from hamava_bench.workloads import WORKLOADS  # noqa: E402

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

#: Equal steps of simulated time the timed window is cut into.
SLICES = 50


def tail_index(count: int, percentile: float = 0.99) -> int:
    """Nearest-rank index of ``percentile``, lowered until enough samples lie beyond."""
    index = ceil(percentile * count) - 1
    return max(0, min(index, count - 1 - TAIL_SAMPLES))


def _latency_ms(sorted_latencies: List[float], index: int) -> float:
    return sorted_latencies[index] * 1e3 if sorted_latencies else 0.0


def longest_write_gap(completion_times: List[float], start: float, end: float) -> float:
    """Longest stretch of the window in which no write was committed anywhere.

    Time without service: rounds are global in this protocol, so a cluster
    that stops ordering stalls every cluster's writes, and the global gap
    sees it.  Window edges count, so an outage still open at the end shows.
    """
    edges = [start, *completion_times, end]
    return max(after - before for before, after in zip(edges, edges[1:]))


def simulated(spec, metrics, stats, populations: List[Dict[str, float]], events: int) -> Dict[str, object]:
    """Every simulated metric and counter of one finished run.

    Exact per seed: nothing here reads a host clock.  Throughput and
    latencies are taken over the measurement window (after the warm-up);
    every "per op" ratio divides a whole-run count by the operations
    completed in the whole run, so that both sides cover the same span.
    """
    start, end = metrics.window
    window = [r for r in metrics.transactions if start <= r.completed_at <= end]
    writes = [r for r in window if r.op == "write"]
    write_latencies = sorted(r.latency for r in writes)
    read_latencies = sorted(r.latency for r in window if r.op != "write")
    ops = len(metrics.transactions)
    open_loop = spec.workload_model == "open"
    if open_loop:
        submitted = int(metrics.offered)
        in_flight = int(sum(p["in_flight"] for p in populations))
    else:
        in_flight = spec.client_threads * spec.clients_per_cluster * len(spec.clusters)
        submitted = ops + in_flight
    write_tail = tail_index(len(write_latencies))
    read_tail = tail_index(len(read_latencies))
    end_to_end = {
        "sim_throughput_ops_s": len(window) / (end - start),
        "write_latency_p50_ms": _latency_ms(write_latencies, tail_index(len(write_latencies), 0.5)),
        "write_latency_p99_ms": _latency_ms(write_latencies, write_tail),
        "read_latency_p99_ms": _latency_ms(read_latencies, read_tail),
        "max_write_gap_ms": longest_write_gap([r.completed_at for r in writes], start, end) * 1e3,
        "wire_msgs_per_op": stats.messages_sent / ops,
        "wire_kb_per_op": stats.bytes_sent / 1024.0 / ops,
        "completed_op_share": ops / submitted,
    }
    by_layer = message_counts(stats.by_type)
    rounds = metrics.rounds
    stages = metrics.stage_breakdown()
    offered = sum(p["offered"] for p in populations)
    dispatched = sum(p["dispatched"] for p in populations)
    counters = {
        "sim.kernel.events_per_op": events / ops,
        "net.pipeline.loopback_per_op": stats.loopback_messages / ops,
        "net.pipeline.dropped_share": stats.messages_dropped / stats.messages_sent,
        "net.pipeline.link_latency_mean_ms": stats.mean_link_latency() * 1e3,
        "consensus.msgs_per_op": by_layer["consensus"] / ops,
        "core.brd.msgs_per_op": by_layer["core.brd"] / ops,
        "core.replica.share_msgs_per_op": by_layer["core.replica.share"] / ops,
        "workload.client_msgs_per_op": by_layer["workload.client"] / ops,
        "core.replica.ops_per_round": sum(r.transactions for r in rounds) / len(rounds),
        "core.replica.rounds_per_sim_s": len(rounds) / end,
        "core.replica.stage1_ms": stages["stage1"] * 1e3,
        "core.replica.stage2_ms": stages["stage2"] * 1e3,
        "core.replica.stage3_ms": stages["stage3"] * 1e3,
        "core.replica.lease_hit_rate": metrics.lease_hit_rate(),
        "core.replica.reconfigs_applied": len(metrics.reconfigs),
        "core.replica.joins_completed": len(metrics.joins_completed),
        # Open-loop only; zero on closed-loop workloads, which have no
        # arrival schedule to fall behind.
        "workload.offered_ops_s": offered / end,
        "workload.retries_per_kop": 1e3 * sum(p["retries"] for p in populations) / ops,
        "workload.queue_delay_mean_ms": (
            1e3 * sum(p["queueing_delay_mean"] * p["dispatched"] for p in populations) / dispatched
            if dispatched
            else 0.0
        ),
        "workload.backlog_end": sum(p["backlog"] for p in populations),
    }
    blob = json.dumps(
        {"summary": metrics.summary(), "network": stats.snapshot(), "operations": ops},
        sort_keys=True,
    )
    return {
        "end_to_end": end_to_end,
        "counters": counters,
        "fingerprint": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        "ops": ops,
        "attempted": submitted,
        "in_flight": in_flight,
        "offered": offered,
        "samples": {
            "writes": len(write_latencies),
            "reads": len(read_latencies),
            "write_tail_percentile": (write_tail + 1) / len(write_latencies) if writes else 0.0,
            "read_tail_percentile": (read_tail + 1) / len(read_latencies) if read_latencies else 0.0,
        },
    }


def check_after_drain(deployment, spec, drain: float, in_flight: int) -> Dict[str, object]:
    """Keep the clock running for ``drain`` seconds, then judge the outcome.

    *Failed operations*: requests in flight when the measurement ended that
    still have no reply ``drain`` simulated seconds later.  *Agreement*: the
    applied log of every live replica is a contiguous run of the longest
    log (from its start, or from the snapshot point for a replica that
    joined), and every acknowledged write is in that log.
    """
    end = deployment.kernel.now
    deployment.run(duration=drain, warmup=spec.warmup)
    metrics = deployment.metrics
    drained = sum(
        1
        for r in metrics.transactions
        if r.completed_at > end and r.completed_at - r.latency <= end
    )
    errors: List[str] = []
    logs = {
        replica_id: replica.kv.applied_log
        for replica_id, replica in deployment.replicas.items()
        if not replica.crashed
    }
    longest_id = max(sorted(logs), key=lambda replica_id: len(logs[replica_id]))
    longest = logs[longest_id]
    position = {entry[0]: index for index, entry in enumerate(longest)}
    if len(position) != len(longest):
        errors.append(f"{longest_id} applied a write twice")
    for replica_id in sorted(logs):
        log = logs[replica_id]
        if not log:
            continue
        offset = position.get(log[0][0])
        if offset is None or longest[offset : offset + len(log)] != log:
            errors.append(f"applied log of {replica_id} diverges from {longest_id}")
    lost = sum(1 for r in metrics.transactions if r.op == "write" and r.txn_id not in position)
    if lost:
        errors.append(f"{lost} acknowledged writes are in no replica's log")
    return {
        "failed": in_flight - drained,
        "errors": errors,
        "replicas_compared": len(logs),
        "log_length": len(longest),
    }


def run_isolated(quick: bool) -> Dict[str, float]:
    """The repository's micro suites, as they are: one public function per layer."""
    from benchmarks.perf import kernel_bench, network_bench, replica_bench, workload_bench

    kernel = kernel_bench.run(quick)
    network = network_bench.run(quick)
    replica = replica_bench.run(quick)
    workload = workload_bench.run(quick)
    return {
        "sim.kernel.iso_events_per_s": kernel["kernel_events"]["events_per_sec"],
        "sim.kernel.iso_timer_resets_per_s": kernel["kernel_timer_churn"]["resets_per_sec"],
        "net.pipeline.iso_multicast_msgs_per_s": network["network_multicast"]["messages_per_sec"],
        "core.replica.iso_bundle_msgs_per_s": replica["replica_bundle_accounting"]["messages_per_sec"],
        "core.replica.iso_view_lookups_per_s": replica["replica_view_churn"]["lookups_per_sec"],
        "workload.iso_zipf_draws_per_s": workload["workload_zipf"]["draws_per_sec"],
        "workload.iso_ycsb_ops_per_s": workload["workload_ycsb"]["ops_per_sec"],
    }


def run_repetition(args: argparse.Namespace) -> Dict[str, object]:
    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed, quick=args.quick, half=args.half, forked=args.forked)
    marks: List[float] = []
    if args.forked:
        deployment = None
    else:
        deployment = spec.build()
        for step in range(1, SLICES):
            deployment.simulator.schedule_at(
                spec.duration * step / SLICES, lambda: marks.append(time.perf_counter()), label="bench:probe"
            )
    gc.collect()
    setup_s = time.time() - args.spawned_at

    profiler: Optional[cProfile.Profile] = cProfile.Profile() if args.profile else None
    started = time.perf_counter()
    if args.forked:
        from repro.harness.parallel import run_sharded_parallel

        outcome = run_sharded_parallel(spec)
        finished = time.perf_counter()
        metrics, stats = outcome.metrics, outcome.network_stats
        populations, events = outcome.population_stats, outcome.events
    else:
        if profiler is not None:
            profiler.enable()
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        if profiler is not None:
            profiler.disable()
        finished = time.perf_counter()
        stats = deployment.network.stats
        populations = [population.stats() for population in deployment.populations]
        events = deployment.kernel.events_processed

    record = simulated(spec, metrics, stats, populations, events)
    edges = [started, *marks, finished]
    record.update(
        workload=workload.name,
        seed=args.seed,
        setup_s=setup_s,
        wall_s=finished - started,
        slices_s=[after - before for before, after in zip(edges, edges[1:])],
    )
    if profiler is not None:
        package_root = os.path.join(_ROOT, "src", "repro")
        record["layers"] = attribute(profiler.getstats(), package_root)
    if args.check:
        record["check"] = check_after_drain(deployment, spec, workload.drain, record["in_flight"])
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.forked:
        # ``ru_maxrss`` of children is the largest single worker, not their sum.
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = usage / 1024.0
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="workload name, or 'isolated' for the micro suites")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--spawned-at", type=float, default=None, help="parent's time.time() at spawn")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--half", action="store_true", help="traced variant: half the measured duration")
    parser.add_argument("--forked", action="store_true", help="two forked shard workers (sharded workloads only)")
    parser.add_argument("--profile", action="store_true", help="cProfile the timed window, bucket by layer")
    parser.add_argument("--check", action="store_true", help="drain, then check agreement and lost requests")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.time()
    if args.forked and (args.check or args.profile or args.half):
        parser.error("--forked runs in worker processes: nothing to drain or profile")
    record = run_isolated(args.quick) if args.workload == "isolated" else run_repetition(args)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
