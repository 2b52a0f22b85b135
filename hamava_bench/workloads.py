"""The five benchmark workloads, all built through the public ``Scenario`` API.

Each workload is one set of inputs: a topology, an ordering engine, a load
generator (closed loop = callers that each wait for their reply, open loop =
independent users arriving on a schedule) and, for one of them, a fault and
reconfiguration schedule.  ``--seed`` is the only free input; it becomes the
scenario seed, which drives every RNG stream in the simulator.

Simulated durations are sized so one repetition is 1.5–2.5 s of host time
on the 2-core reference container; ``quick`` shrinks them (for smoke use;
the numbers are then not comparable with a full run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro import Scenario, ScenarioSpec


@dataclass(frozen=True)
class Workload:
    """One named set of benchmark inputs.

    Attributes:
        name: Name used on the command line and in ``BENCHMARK.json``.
        why: One line on what the workload is here to show.
        duration: Simulated seconds of one full repetition.
        warmup: Completions before this simulated time are outside the
            measurement window.
        quick_duration: The same under ``--quick`` (about a quarter, but
            never so short that a fault scheduled as a fraction of the
            duration has no time to be repaired before the clock stops).
        drain: Extra simulated seconds the checked repetition keeps running
            after the measurement, to tell requests that were merely in
            flight when the clock stopped from requests that never complete.
        scenario: ``duration -> Scenario`` (seedless; the seed is applied by
            :meth:`spec`).
        open_loop: Load arrives on a schedule (population model).
        joins: Joins the schedule requests, all of which must complete.
        sharded: Also run on two shards: once per set with forked shard
            workers, which must reproduce the serial outcome bit for bit,
            and in the traced run with the in-process coordinator, so that
            the ``sim.sharded`` layer is visible to the profiler.
    """

    name: str
    why: str
    duration: float
    quick_duration: float
    drain: float
    scenario: Callable[[float], Scenario]
    warmup: float = 0.25
    open_loop: bool = False
    joins: int = 0
    sharded: bool = False

    def spec(self, seed: int, quick: bool = False, half: bool = False, forked: bool = False) -> ScenarioSpec:
        """Compile the workload for one seed.

        ``half`` is the traced variant: half the measured duration, on the
        in-process two-shard coordinator if the workload is ``sharded``.
        ``forked`` is the two-worker twin of a ``sharded`` workload.
        """
        duration = self.quick_duration if quick else self.duration
        if half:
            duration = self.warmup + (duration - self.warmup) / 2.0
        builder = self.scenario(duration).duration(duration, warmup=self.warmup).seeds(seed)
        if forked or (half and self.sharded):
            builder = builder.shards(2, parallel=forked)
        return builder.spec()


def _e0_closed(duration: float) -> Scenario:
    return Scenario("e0_closed").clusters(4, 4).engine("hotstuff").threads(8)


def _write_heavy(duration: float) -> Scenario:
    return (
        Scenario("write_heavy")
        .clusters(10, 10)
        .engine("hotstuff_chained")
        .threads(16)
        .workload(read_fraction=0.05)
    )


def _open_leases(duration: float) -> Scenario:
    return (
        Scenario("open_leases")
        .clusters(4, 4)
        .engine("hotstuff")
        .open_loop(preset="steady")
        .read_leases(True)
    )


def _geo32(duration: float) -> Scenario:
    """32 clusters, one synthetic datacenter each, ring RTTs of 60–220 ms."""
    clusters = 32
    builder = (
        Scenario("geo32")
        .clusters(*[(4, f"dc{i}") for i in range(clusters)])
        .engine("hotstuff")
        .threads(8)
    )
    for i in range(clusters):
        for j in range(i + 1, clusters):
            ring = min(abs(i - j), clusters - abs(i - j))
            builder = builder.rtt(f"dc{i}", f"dc{j}", 60.0 + 10.0 * ring)
    return builder


def _hetero_churn_failover(duration: float) -> Scenario:
    """Heterogeneous clusters under crashes, churn and a Byzantine leader.

    Open loop, so requests keep arriving on schedule while a cluster has no
    working leader and the outage shows as latency and as a write gap, not
    as reduced offered load.  Fault times are fractions of the duration.

    The crashes hit followers, not the leader: a crashed leader takes the
    acknowledgements of its in-flight writes with it, and the replicas drop
    the clients' retries as already executed, so those requests never
    complete (see README.md, "Known limits").  The leader change is
    exercised by the Byzantine leader instead, which stays up to answer.

    The offered rate is low on purpose.  At 400 requests/s per region and
    above, the writes queued during the leader change make the first rounds
    after it slow enough to trip the 1-s timeouts again, and on some seeds
    the cascade elects the crashed replica or strands requests for good;
    at 300 it recovered cleanly on each of 90 seeds tried.
    """
    return (
        Scenario("hetero_churn_failover")
        .clusters((13, "us-west1"), (7, "europe-west3"), (4, "asia-south1"))
        .engine("bftsmart")
        .open_loop(rate=300.0)
        .timeouts(1.0)
        .config(retry_timeout=1.0)
        .crash("r0.12", at=0.3 * duration)
        .join(1, at=0.5 * duration)
        .join(2, at=0.5 * duration)
        .leave("r0.5", at=0.7 * duration)
        .byzantine_leader(1, at=0.8 * duration)
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="e0_closed",
            why="2x4 replicas on a LAN, closed loop, YCSB 85/15: delivery pipeline, crypto and replica stages dominate",
            duration=6.0,
            quick_duration=1.5,
            drain=0.5,
            scenario=_e0_closed,
        ),
        Workload(
            name="write_heavy",
            why="2x10 replicas, chained HotStuff, 95% writes: consensus engine and BRD do the work; control for read-path changes",
            duration=5.0,
            quick_duration=1.25,
            drain=0.5,
            scenario=_write_heavy,
        ),
        Workload(
            name="open_leases",
            why="open-loop Poisson users with read leases: reads bypass consensus, so the population model and read path dominate",
            duration=7.0,
            quick_duration=1.75,
            drain=0.5,
            scenario=_open_leases,
            open_loop=True,
        ),
        Workload(
            name="geo32",
            why="32 clusters across 60-220 ms WAN RTTs: stage-2 fan-out bypasses the engines; also checked against 2 forked shards",
            duration=5.0,
            quick_duration=2.0,
            drain=1.5,
            scenario=_geo32,
            # The first rounds run ahead of the WAN; a longer warm-up keeps
            # the window in the steady state, where one round is ~0.4 s.
            warmup=1.0,
            sharded=True,
        ),
        Workload(
            name="hetero_churn_failover",
            why="clusters of 13/7/4 in three regions, BFT-SMaRt, open loop; crashes, joins, a leave, Byzantine leader",
            duration=12.0,
            quick_duration=7.0,
            drain=2.5,
            scenario=_hetero_churn_failover,
            open_loop=True,
            joins=2,
        ),
    )
}

__all__ = ["WORKLOADS", "Workload"]
