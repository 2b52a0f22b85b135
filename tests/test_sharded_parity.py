"""Serial-vs-forked result parity (the PR 7 hard requirement).

Splitting clusters across forked shard workers must be a pure
execution-strategy knob: for any fixed-seed scenario, the
:class:`~repro.harness.runner.ResultRow` produced serially and with forked
shard workers must be **byte-identical** (``to_json()`` equality, not
approximate metric agreement).  The suite sweeps miniature versions of every
paper experiment family E0–E8 plus the open-loop population presets, because
each family exercises a different slice of the worker surface: multi-region
latency, fault injection, joins/leaves, partitions, churn, RTT overrides,
and population workloads.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from helpers import silent_inter_scenario
from repro.errors import SimulationError
from repro.harness import parallel
from repro.harness.builder import Scenario
from repro.harness.parallel import _inject, run_sharded_parallel
from repro.harness.runner import ScenarioRunner, run_scenario
from repro.harness.scenario import EVENT_TYPES, ScenarioEvent
from repro.net import adversity
from repro.net.adversity import RttTrace
from repro.workload import population


def _row_json(spec) -> str:
    return run_scenario(spec).to_json()


def _with_shards(builder_fn, shards: int, parallel: bool = False):
    spec = builder_fn()
    spec.shards = shards
    spec.shard_parallel = parallel
    return spec


# --------------------------------------------------------------------------- #
# Miniature E0–E8 scenario family (short durations, full feature coverage)
# --------------------------------------------------------------------------- #
def _e0_baseline():
    return (
        Scenario("p-e0")
        .clusters(4, 4, 4, 4)
        .engine("hotstuff")
        .threads(2)
        .duration(0.8, warmup=0.2)
        .seeds(7)
        .spec()
    )


def _e1_multiregion():
    return (
        Scenario("p-e1")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "asia-south1"), (4, "us-west1"))
        .engine("hotstuff")
        .threads(2)
        .duration(0.8, warmup=0.2)
        .seeds(11)
        .spec()
    )


def _e2_stages():
    return (
        Scenario("p-e2")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"))
        .engine("hotstuff")
        .threads(2)
        .stages()
        .duration(0.8, warmup=0.2)
        .seeds(13)
        .spec()
    )


def _e3_heterogeneity():
    return (
        Scenario("p-e3")
        .clusters((4, "us-west1"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .place("c1/r0", "asia-south1")
        .place("c1/r1", "asia-south1")
        .duration(0.8, warmup=0.2)
        .seeds(17)
        .spec()
    )


def _e4_faults():
    return (
        Scenario("p-e4")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .crash_non_leaders(1, at=0.3)
        .crash_leader(2, at=0.4)
        .byzantine_leader(3, at=0.35)
        .timeseries(0.25)
        .duration(0.8, warmup=0.2)
        .seeds(19)
        .spec()
    )


def _e5_join_leave():
    return (
        Scenario("p-e5")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .join(1, at=0.25)
        .join(3, at=0.3)
        .leave("c2/r3", at=0.35)
        .duration(0.8, warmup=0.2)
        .seeds(23)
        .spec()
    )


def _e6_geobft():
    return (
        Scenario("p-e6")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "asia-south1"))
        .engine("bftsmart")
        .preset("geobft")
        .threads(2)
        .duration(0.8, warmup=0.2)
        .seeds(29)
        .spec()
    )


def _e7_churn():
    return (
        Scenario("p-e7")
        .clusters(4, 4, 4, 4, 4, 4)
        .engine("hotstuff")
        .threads(2)
        .churn(start=0.25, period=0.2, clusters=(0, 2, 4))
        .duration(0.8, warmup=0.2)
        .seeds(31)
        .spec()
    )


def _e8_rtt_override():
    return (
        Scenario("p-e8")
        .clusters((4, "us-west1"), (4, "us-east5"), (4, "us-west1"), (4, "us-east5"))
        .engine("hotstuff")
        .threads(2)
        .rtt("us-west1", "us-east5", 219.0)
        .churn(start=0.3, period=0.25, clusters=(1,))
        .duration(0.8, warmup=0.2)
        .seeds(37)
        .spec()
    )


def _partition():
    return (
        Scenario("p-part")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .partition(0, 1, at=0.25, duration=0.2)
        .duration(0.8, warmup=0.2)
        .seeds(41)
        .spec()
    )


def _population_steady():
    return (
        Scenario("p-pop-steady")
        .clusters(4, 4, 4, 4)
        .engine("hotstuff")
        .open_loop(clients=150, rate=250.0)
        .duration(0.8, warmup=0.2)
        .seeds(43)
        .spec()
    )


def _population_preset():
    return (
        Scenario("p-pop-preset")
        .clusters(4, 4, 4, 4)
        .engine("hotstuff")
        .open_loop(preset="steady", rate=600.0)
        .duration(0.8, warmup=0.2)
        .seeds(47)
        .spec()
    )


def _adv_gray():
    return (
        Scenario("p-adv-gray")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .gray_leader(0, at=0.25, factor=50.0)
        .gray("c1/r2", at=0.3, factor=12.0, duration=0.2)
        .clock_skew("c2/r1", at=0.3, rate=0.2)
        .duration(0.8, warmup=0.2)
        .seeds(53)
        .spec()
    )


def _adv_flapping():
    return (
        Scenario("p-adv-flap")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .flapping_partition(0, 1, at=0.25, period=0.2, duty=0.5, cycles=2, direction="a_to_b")
        .duration(0.8, warmup=0.2)
        .seeds(59)
        .spec()
    )


def _adv_outage():
    return (
        Scenario("p-adv-outage")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "asia-south1"), (4, "us-west1"))
        .engine("hotstuff")
        .threads(2)
        .region_outage("asia-south1", at=0.25, duration=0.2)
        .duration(0.8, warmup=0.2)
        .seeds(61)
        .spec()
    )


def _adv_congestion():
    return (
        Scenario("p-adv-congest")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .congestion()
        .cross_traffic("us-west1", "europe-west3", 1.8e7, start=0.25, stop=0.6)
        .duration(0.8, warmup=0.2)
        .seeds(67)
        .spec()
    )


def _adv_trace():
    trace = RttTrace.synthetic(
        pairs=[("us-west1", "europe-west3", 148.0)], duration=0.8, seed=71
    )
    return (
        Scenario("p-adv-trace")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff")
        .threads(2)
        .rtt_trace(trace)
        .duration(0.8, warmup=0.2)
        .seeds(71)
        .spec()
    )


def _chained_e0():
    return (
        Scenario("p-ch-e0")
        .clusters(4, 4, 4, 4)
        .engine("hotstuff_chained")
        .threads(2)
        .duration(0.8, warmup=0.2)
        .seeds(7)
        .spec()
    )


def _chained_faults():
    return (
        Scenario("p-ch-faults")
        .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
        .engine("hotstuff_chained")
        .threads(2)
        .crash_non_leaders(1, at=0.3)
        .crash_leader(2, at=0.4)
        .byzantine_leader(3, at=0.35)
        .duration(0.8, warmup=0.2)
        .seeds(19)
        .spec()
    )


def _chained_open_leases():
    return (
        Scenario("p-ch-leases")
        .clusters(4, 4, 4, 4)
        .engine("hotstuff_chained")
        .open_loop(clients=150, rate=250.0)
        .read_leases(True)
        .duration(0.8, warmup=0.2)
        .seeds(43)
        .spec()
    )


def _three_regions_mixed_links():
    # Clusters 0 and 1 share a region: their leaders and Inter targets take
    # receiver slots three ways at once — fused intra-cluster LAN traffic,
    # cross-cluster LAN traffic booked at the barrier, and cross-region
    # envelopes that take their slot when they arrive.
    return (
        Scenario("p-3region")
        .clusters((4, "us-west1"), (4, "us-west1"), (4, "europe-west3"), (7, "asia-south1"))
        .engine("hotstuff")
        .threads(3)
        .duration(1.0, warmup=0.2)
        .seeds(73)
        .spec()
    )


def _silent_inter():
    # The remote leader change is the one consumer of envelope signatures:
    # the RComplaint that crosses the shard boundary carries the LComplaint
    # quorum's link-layer signatures, materialised for the pipe.
    return silent_inter_scenario().spec()


FAMILIES = {
    "e0": _e0_baseline,
    "e1": _e1_multiregion,
    "e2": _e2_stages,
    "e3": _e3_heterogeneity,
    "e4": _e4_faults,
    "e5": _e5_join_leave,
    "e6": _e6_geobft,
    "e7": _e7_churn,
    "e8": _e8_rtt_override,
    "partition": _partition,
    "pop-steady": _population_steady,
    "pop-preset": _population_preset,
    "adv-gray": _adv_gray,
    "adv-flapping": _adv_flapping,
    "adv-outage": _adv_outage,
    "adv-congestion": _adv_congestion,
    "adv-trace": _adv_trace,
    "chained-e0": _chained_e0,
    "chained-faults": _chained_faults,
    "chained-open-leases": _chained_open_leases,
    "three-regions": _three_regions_mixed_links,
    "silent-inter": _silent_inter,
}


#: Model constants a family runs with instead of the module's value
#: (forked workers inherit the patch): ``builder -> ((module, name, value), ...)``.
CONSTANTS = {
    _population_preset: ((population, "BATCH_WINDOW", 0.01),),
    _adv_congestion: ((adversity, "CAPACITY_BYTES_PER_SEC", 2.0e7),),
}


def _patch_constants(monkeypatch, builder_fn) -> None:
    for module, name, value in CONSTANTS.get(builder_fn, ()):
        monkeypatch.setattr(module, name, value)


class TestShardedParity:
    """to_json() equality serial vs forked workers across the experiment families.

    ``partition`` and ``adv-flapping`` schedule events that read live
    replicas of several clusters, so they run in one process by design;
    their rows still go through the forked entry point.
    """

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_rows_identical_at_two_and_four_shards(self, family, monkeypatch):
        builder_fn = FAMILIES[family]
        _patch_constants(monkeypatch, builder_fn)
        serial = _row_json(builder_fn())
        for shards in (2, 4):
            forked = _row_json(_with_shards(builder_fn, shards, parallel=True))
            assert forked == serial, f"{family}: {shards} forked workers diverged from serial"

    def test_single_shard_spec_equals_unsharded(self):
        # shards=1 runs in process even when parallel is asked for.
        assert _row_json(_with_shards(_e0_baseline, 1, parallel=True)) == _row_json(_e0_baseline())

    def test_chained_single_shard_spec_equals_unsharded(self):
        assert _row_json(_with_shards(_chained_e0, 1)) == _row_json(_chained_e0())


class TestShardParallelWorkers:
    """The forked-worker path reproduces the serial rows byte-for-byte."""

    def test_e0_parallel_workers_match_serial(self):
        serial = _row_json(_e0_baseline())
        assert _row_json(_with_shards(_e0_baseline, 2, parallel=True)) == serial
        assert _row_json(_with_shards(_e0_baseline, 4, parallel=True)) == serial

    def test_multiregion_and_churn_parallel_workers_match_serial(self):
        for builder_fn in (_e1_multiregion, _e7_churn):
            serial = _row_json(builder_fn())
            assert _row_json(_with_shards(builder_fn, 4, parallel=True)) == serial

    def test_three_regions_match_on_one_shard_two_shards_and_two_forked_workers(self):
        row = run_scenario(_three_regions_mixed_links())
        assert row.operations > 100
        serial = row.to_json()
        # Without ``parallel`` the shard count is inert: one kernel.
        assert _row_json(_with_shards(_three_regions_mixed_links, 2)) == serial
        assert _row_json(_with_shards(_three_regions_mixed_links, 2, parallel=True)) == serial

    def test_silent_inter_matches_on_one_shard_two_shards_and_two_forked_workers(self):
        row = run_scenario(_silent_inter())
        assert row.operations > 100
        serial = row.to_json()
        assert _row_json(_with_shards(_silent_inter, 2)) == serial
        assert _row_json(_with_shards(_silent_inter, 2, parallel=True)) == serial

    def test_population_parallel_workers_match_serial(self):
        serial = _row_json(_population_steady())
        assert _row_json(_with_shards(_population_steady, 4, parallel=True)) == serial

    def test_chained_parallel_workers_match_serial(self):
        # The chained engine's cross-replica state (grace timers, piggybacked
        # decides) is cluster-local, so forked shard workers must reproduce
        # the serial rows exactly, faults included.
        for builder_fn in (_chained_e0, _chained_faults):
            serial = _row_json(builder_fn())
            assert _row_json(_with_shards(builder_fn, 2, parallel=True)) == serial

    def test_partition_spec_falls_back_in_process_identically(self):
        # Partition drop rules read live replica state across clusters, so
        # the parallel runner runs it in one process — and still matches.
        serial = _row_json(_partition())
        assert _row_json(_with_shards(_partition, 4, parallel=True)) == serial

    def test_adversity_specs_parallel_workers_match_serial(self, monkeypatch):
        # Gray replicas, clock skew, congestion, and RTT traces are all
        # shard-local or derived identically from the spec in every worker,
        # so the forked path must reproduce the serial rows.
        _patch_constants(monkeypatch, _adv_congestion)
        for builder_fn in (_adv_gray, _adv_congestion, _adv_trace):
            serial = _row_json(builder_fn())
            assert _row_json(_with_shards(builder_fn, 2, parallel=True)) == serial

    def test_flapping_spec_falls_back_in_process_identically(self):
        # Flapping partitions share the steady-partition live-state problem:
        # the parallel runner runs them in one process, byte-identically.
        serial = _row_json(_adv_flapping())
        assert _row_json(_with_shards(_adv_flapping, 4, parallel=True)) == serial


class TestSeedGridParallelism:
    """run_scenarios fans the full scenario×seed grid out to the pool."""

    def test_grid_rows_match_serial_execution(self):
        def grid():
            return (
                Scenario("p-grid")
                .clusters(4, 4)
                .engine("hotstuff")
                .threads(2)
                .duration(0.6, warmup=0.1)
                .seeds(3, 5, 9)
                .specs()
            )

        serial_rows = ScenarioRunner(workers=1).run(grid())
        pooled_rows = ScenarioRunner(workers=2).run(grid())
        assert [row.to_json() for row in pooled_rows] == [row.to_json() for row in serial_rows]

    def test_grid_mixes_pooled_and_shard_parallel_specs(self):
        specs = (
            Scenario("p-mixed")
            .clusters(4, 4, 4, 4)
            .engine("hotstuff")
            .threads(2)
            .duration(0.6, warmup=0.1)
            .seeds(3, 5)
            .specs()
        )
        specs[1].shards = 2
        specs[1].shard_parallel = True
        rows = ScenarioRunner(workers=2).run(specs)
        reference = [run_scenario(spec) for spec in specs]
        assert [row.to_json() for row in rows] == [row.to_json() for row in reference]


class TestBarrierGrid:
    """``Deployment.next_barrier`` is the one barrier function; without an RTT
    trace its grid is ``k * L`` for the smallest integer ``k`` with
    ``k * L > time``, float for float."""

    @staticmethod
    def _static_grid(time: float, lookahead: float) -> float:
        k = int(time / lookahead)
        while k * lookahead <= time:
            k += 1
        while k > 1 and (k - 1) * lookahead > time:
            k -= 1
        return k * lookahead

    def test_trace_free_schedule_reproduces_the_static_grid(self):
        deployment = _e1_multiregion().build()
        schedule = deployment.latency_model.cross_group_floor_schedule(deployment._owners)
        lookahead = min(floor for _, floor in schedule)
        assert lookahead > 0.0
        rng = random.Random(20)
        times = [rng.uniform(0.0, 300.0) for _ in range(1000)]
        # The awkward inputs: grid points themselves and their float neighbours.
        for k in (0, 1, 2, 3, 7, 100, 12345):
            point = k * lookahead
            times += [point, math.nextafter(point, math.inf), math.nextafter(point, 0.0)]
        for time in times:
            barrier = deployment.next_barrier(time)
            assert barrier == self._static_grid(time, lookahead), time
            assert barrier > time

    def test_no_cross_cluster_pair_means_no_barrier(self):
        deployment = Scenario("one-cluster").clusters(4).spec().build()
        assert deployment.next_barrier(0.0) is None


class TestForkedExchange:
    """Unit coverage for a forked worker's barrier injection."""

    def test_lookahead_violation_raises(self):
        delivered = []

        class FakeNetwork:
            def deliver_cross(self, arrival, destination, envelope, fused):
                delivered.append(arrival)

        # In canonical order, and nothing before the window start.
        _inject(FakeNetwork(), [(0.3, "b", 0, "x", None, False), (0.2, "a", 0, "x", None, False)], 0.2)
        assert delivered == [0.2, 0.3]
        # Arrival before the window being simulated: the destination worker
        # already ran past it — a conservative violation.
        with pytest.raises(SimulationError, match="lookahead"):
            _inject(FakeNetwork(), [(0.3, "b", 0, "x", None, False), (0.1, "a", 0, "x", None, False)], 0.2)
        assert delivered == [0.2, 0.3]

    def test_wedged_peer_fails_within_the_barrier_timeout_naming_it(self, monkeypatch):
        @dataclass
        class StallEvent(ScenarioEvent):
            """Wedge the worker that runs ``cluster``: its kernel stops answering."""

            kind: ClassVar[str] = "test_stall"
            cluster: int
            at: float

            def install(self, injector, spec):
                injector.on_cluster(
                    self.cluster, self.at, "fault:stall", lambda members, leader: [leader],
                    lambda replica, kernel: time.sleep(60.0),
                )

        try:
            spec = _with_shards(_e1_multiregion, 2, parallel=True)
            spec.schedule.append(StallEvent(cluster=0, at=0.3))
            monkeypatch.setattr(parallel, "_BARRIER_TIMEOUT", 0.5)
            started = time.monotonic()
            with pytest.raises(SimulationError, match=r"shard 1: peer shard 0 silent .* window that starts at 0\.\d"):
                run_sharded_parallel(spec)
            assert time.monotonic() - started < 15.0
        finally:
            EVENT_TYPES.pop("test_stall", None)
