"""Adversarial network & gray-failure pack (PR 8).

Unit coverage for the dynamic-adversity layer: trace-driven RTTs,
load-dependent congestion, the triangle-inequality RTT fallback, gray
(slow-CPU) and clock-skew knobs, the new declarative fault events, and the
fault-routing regressions the pack fixed (replica-scoped faults owned by a
non-zero shard, partition healing overlapping reconfiguration).
"""

from __future__ import annotations

import json
import os
import types
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.harness.builder import Scenario
from repro.harness.runner import run_scenario
from repro.harness.scenario import (
    ClockSkewEvent,
    CrashEvent,
    FlappingPartitionEvent,
    GrayReplicaEvent,
    RegionOutageEvent,
    ScenarioSpec,
)
from repro.net import adversity, latency as latency_module
from repro.net.adversity import (
    CongestionConfig,
    CongestionModel,
    CrossTrafficStream,
    RttTrace,
)
from repro.net.latency import region_rtt_ms


def trace_of(points):
    """An :class:`RttTrace` from ``{(region_a, region_b): [(t, rtt_ms), ...]}``."""
    return RttTrace.from_dict(
        {"segments": {f"{a}|{b}": [list(point) for point in series] for (a, b), series in points.items()}}
    )


# --------------------------------------------------------------------------- #
# RttTrace
# --------------------------------------------------------------------------- #
class TestRttTrace:
    PAIR = ("us-west1", "europe-west3")

    def _trace(self):
        return trace_of(
            {self.PAIR: [(0.0, 100.0), (1.0, 200.0), (2.0, 150.0)]}
        )

    def test_interpolates_linearly_between_breakpoints(self):
        trace = self._trace()
        assert trace.rtt_at(*self.PAIR, 0.0) == 100.0
        assert trace.rtt_at(*self.PAIR, 0.5) == 150.0
        assert trace.rtt_at(*self.PAIR, 1.0) == 200.0
        assert trace.rtt_at(*self.PAIR, 1.5) == 175.0

    def test_extends_as_constant_outside_the_trace(self):
        trace = self._trace()
        assert trace.rtt_at(*self.PAIR, -5.0) == 100.0
        assert trace.rtt_at(*self.PAIR, 99.0) == 150.0

    def test_pair_key_is_unordered(self):
        trace = self._trace()
        assert trace.rtt_at("europe-west3", "us-west1", 0.5) == 150.0

    def test_untraced_pair_returns_none(self):
        assert self._trace().rtt_at("us-west1", "asia-south1", 0.5) is None

    def test_window_min_includes_interior_breakpoints(self):
        trace = trace_of(
            {self.PAIR: [(0.0, 100.0), (1.0, 40.0), (2.0, 100.0)]}
        )
        # The dip at t=1.0 sits strictly inside the window.
        assert trace.window_min_rtt(*self.PAIR, 0.5, 1.5) == 40.0
        # Windows not containing the dip only see their edges.
        assert trace.window_min_rtt(*self.PAIR, 1.2, 1.4) == pytest.approx(52.0)

    def test_breakpoints_are_sorted_and_unique(self):
        trace = trace_of(
            {
                self.PAIR: [(0.0, 100.0), (1.0, 120.0)],
                ("us-west1", "asia-south1"): [(0.0, 220.0), (0.5, 230.0), (1.0, 210.0)],
            }
        )
        assert trace.breakpoints() == [0.0, 0.5, 1.0]

    def test_round_trips_through_dict(self):
        trace = self._trace()
        rebuilt = RttTrace.from_dict(trace.to_dict())
        assert rebuilt.segments == trace.segments
        assert rebuilt.to_dict() == trace.to_dict()

    def test_from_dict_rejects_bad_inputs(self):
        for segments in (
            {},
            {"a|b": []},
            {"ab": [[0.0, 100.0]]},
            {"a|b": [[0.0, -1.0]]},
            {"a|b": [[1.0, 100.0], [0.0, 100.0]]},
        ):
            with pytest.raises(ConfigurationError):
                RttTrace.from_dict({"segments": segments})

    def test_shipped_example_trace_loads_and_validates(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "examples", "rtt_trace_geo.json"), encoding="utf-8") as handle:
            trace = RttTrace.from_dict(json.load(handle))
        trace.validate()
        assert ("europe-west3", "us-west1") in trace.segments
        assert trace.rtt_at("us-west1", "europe-west3", 0.0) > 0

    def test_synthetic_is_deterministic_and_covers_duration(self):
        kwargs = dict(pairs=[(*self.PAIR, 148.0)], duration=5.0, seed=13)
        first = RttTrace.synthetic(**kwargs)
        second = RttTrace.synthetic(**kwargs)
        assert first.segments == second.segments
        series = first.segments[tuple(sorted(self.PAIR))]
        assert series[0][0] == 0.0
        assert series[-1][0] >= 5.0
        assert all(rtt > 0 for _, rtt in series)

    def test_synthetic_trace_bytes_unchanged(self):
        # Pinned from the generator before it moved onto config_rng:
        # config_rng(seed) must replay these traces byte-for-byte.
        trace = RttTrace.synthetic(
            pairs=[("us-west1", "europe-west3", 148.0), ("us-west1", "asia-south1", 230.0)],
            duration=10.0,
            seed=7,
            step=2.0,
        )
        assert trace.segments == {
            ("asia-south1", "us-west1"): [
                (0.0, 230.0), (2.0, 186.737), (4.0, 221.645), (6.0, 234.528),
                (8.0, 569.539), (10.0, 460.0), (12.0, 378.179),
            ],
            ("europe-west3", "us-west1"): [
                (0.0, 148.0), (2.0, 134.964), (4.0, 318.338), (6.0, 237.352),
                (8.0, 150.095), (10.0, 114.58), (12.0, 232.339),
            ],
        }

    def test_validate_rejects_bad_traces(self):
        with pytest.raises(ConfigurationError):
            RttTrace(segments={}).validate()
        with pytest.raises(ConfigurationError):
            RttTrace(segments={self.PAIR: []}).validate()
        with pytest.raises(ConfigurationError):
            RttTrace(segments={self.PAIR: [(0.0, -1.0)]}).validate()
        with pytest.raises(ConfigurationError):
            RttTrace(segments={self.PAIR: [(1.0, 100.0), (0.0, 100.0)]}).validate()


# --------------------------------------------------------------------------- #
# Congestion model
# --------------------------------------------------------------------------- #
def _regions_stub():
    def region_of(process_id: str) -> str:
        return "us-west1" if process_id.startswith("west") else "europe-west3"

    return types.SimpleNamespace(region_of=region_of)


class TestCongestionModel:
    @pytest.fixture(autouse=True)
    def _small_link(self, monkeypatch):
        monkeypatch.setattr(adversity, "CAPACITY_BYTES_PER_SEC", 1.0e6)
        monkeypatch.setattr(adversity, "SERVICE_TIME", 0.01)

    def _model(self, streams=()):
        return CongestionModel(CongestionConfig(streams=list(streams)), _regions_stub())

    def test_idle_link_pays_nothing(self):
        model = self._model()
        # First message in a window sees zero already-accounted bytes.
        assert model.surcharge("c0", "west/a", "east/b", 10_000, 0.0) == 0.0

    def test_surcharge_grows_with_accounted_load(self):
        model = self._model()
        charges = [
            model.surcharge("c0", "west/a", "east/b", 50_000, 0.01 * i) for i in range(5)
        ]
        assert charges[0] == 0.0
        assert all(later > earlier for earlier, later in zip(charges[1:], charges[2:]))
        assert all(charge >= 0.0 for charge in charges)

    def test_window_rollover_resets_the_counters(self):
        assert adversity.WINDOW == 0.25
        model = self._model()
        for i in range(5):
            model.surcharge("c0", "west/a", "east/b", 50_000, 0.01 * i)
        # Next window starts from a clean accumulator.
        assert model.surcharge("c0", "west/a", "east/b", 50_000, 0.30) == 0.0

    def test_intra_region_traffic_is_free(self):
        model = self._model()
        for i in range(5):
            assert model.surcharge("c0", "west/a", "west/b", 1_000_000, 0.01 * i) == 0.0

    def test_utilization_is_clamped(self):
        assert adversity.MAX_UTILIZATION == 0.95
        model = self._model()
        model.surcharge("c0", "west/a", "east/b", 10**9, 0.0)
        charge = model.surcharge("c0", "west/a", "east/b", 1, 0.001)
        assert charge == pytest.approx(0.01 * 0.95 / 0.05)

    def test_background_stream_loads_the_link_without_messages(self):
        stream = CrossTrafficStream("us-west1", "europe-west3", 5.0e5, start=1.0, stop=2.0)
        model = self._model(streams=[stream])
        # Outside the stream's window: idle link, no surcharge.
        assert model.surcharge("c0", "west/a", "east/b", 100, 0.5) == 0.0
        assert model.surcharge("c1", "west/a", "east/b", 100, 2.0) == 0.0
        # Inside it: rho = 0.5 from background alone.
        charge = model.surcharge("c2", "west/a", "east/b", 100, 1.5)
        assert charge == pytest.approx(0.01 * 0.5 / 0.5)
        # The reverse direction carries no stream.
        assert model.surcharge("c3", "east/b", "west/a", 100, 1.5) == 0.0

    def test_accounting_keys_are_independent(self):
        model = self._model()
        for i in range(5):
            model.surcharge("c0", "west/a", "east/b", 50_000, 0.01 * i)
        # A different owner cluster has its own accumulator.
        assert model.surcharge("c1", "west/z", "east/b", 50_000, 0.06) == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CongestionConfig(
                streams=[CrossTrafficStream("a", "b", 1.0, start=2.0, stop=1.0)]
            ).validate()

    def test_config_round_trips_through_dict(self):
        config = CongestionConfig(
            streams=[CrossTrafficStream("us-west1", "europe-west3", 1.0e6, start=0.5)],
        )
        rebuilt = CongestionConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()


# --------------------------------------------------------------------------- #
# Satellite: triangle-inequality RTT fallback
# --------------------------------------------------------------------------- #
class TestTriangleFallback:
    TABLE = {
        ("atlantis-1", "us-west1"): 50.0,
        ("us-west1", "lemuria-2"): 60.0,
    }

    @pytest.fixture(autouse=True)
    def _reset_warning_memo(self):
        latency_module._estimated_pairs.clear()
        yield
        latency_module._estimated_pairs.clear()

    def test_estimates_via_hub_with_one_time_warning(self):
        with pytest.warns(RuntimeWarning, match="triangle-inequality"):
            estimate = region_rtt_ms("atlantis-1", "lemuria-2", table=self.TABLE)
        assert estimate == pytest.approx(110.0)
        # Second lookup of the same pair (either order) stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert region_rtt_ms("lemuria-2", "atlantis-1", table=self.TABLE) == pytest.approx(110.0)

    def test_explicit_entries_stay_authoritative(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert region_rtt_ms("atlantis-1", "us-west1", table=self.TABLE) == 50.0

    def test_pair_without_hub_route_still_raises(self):
        with pytest.raises(ConfigurationError):
            region_rtt_ms("atlantis-1", "mu-3", table=self.TABLE)


# --------------------------------------------------------------------------- #
# Gray-failure and clock-skew knobs
# --------------------------------------------------------------------------- #
def _tiny_deployment():
    spec = (
        Scenario("adv-knobs")
        .clusters(4, 4)
        .engine("hotstuff")
        .threads(2)
        .duration(0.5, warmup=0.1)
        .seeds(3)
        .spec()
    )
    return spec.build()


class TestGrayAndSkewKnobs:
    def test_set_cpu_factor_reaches_the_network_port(self):
        deployment = _tiny_deployment()
        replica = deployment.replicas["c0/r1"]
        replica.set_cpu_factor(6.0)
        port = replica.network.ports[replica.process_id]
        assert replica.cpu_factor == 6.0
        assert port.cpu_factor == 6.0
        replica.set_cpu_factor(1.0)
        assert port.cpu_factor == 1.0

    def test_set_timer_rate_reaches_timers_and_pools(self):
        deployment = _tiny_deployment()
        replica = deployment.replicas["c0/r1"]
        timer_before = replica.new_timer(1.0, lambda: None, name="probe-before")
        replica.set_timer_rate(2.5)
        timer_after = replica.new_timer(1.0, lambda: None, name="probe-after")
        assert timer_before.rate == 2.5  # retroactively reskewed
        assert timer_after.rate == 2.5
        assert replica.ordering.brd_timer_pool.rate == 2.5

    def test_invalid_knob_values_raise(self):
        deployment = _tiny_deployment()
        replica = deployment.replicas["c0/r0"]
        with pytest.raises(ValueError):
            replica.set_cpu_factor(0.0)
        with pytest.raises(ValueError):
            replica.set_timer_rate(-1.0)


# --------------------------------------------------------------------------- #
# Satellite: replica-scoped fault routing under forked shard workers
# --------------------------------------------------------------------------- #
class TestFaultShardRouting:
    def _spec(self, crash: bool):
        builder = (
            Scenario("adv-crash-routing")
            .clusters(4, 4, 4, 4)
            .engine("hotstuff")
            .threads(2)
            .duration(0.8, warmup=0.2)
            .seeds(19)
        )
        if crash:
            # c2/r1 lives on shard 1 of a 2-way split: the fault must be
            # scheduled by the worker that owns the replica, not worker 0.
            builder = builder.crash("c2/r1", at=0.3)
        return builder.spec()

    def test_crash_on_nonzero_shard_matches_serial(self):
        serial = run_scenario(self._spec(crash=True)).to_json()
        sharded = self._spec(crash=True)
        sharded.shards = 2
        sharded.shard_parallel = True
        assert run_scenario(sharded).to_json() == serial

    def test_crash_actually_takes_effect(self):
        with_crash = run_scenario(self._spec(crash=True)).to_json()
        without = run_scenario(self._spec(crash=False)).to_json()
        assert with_crash != without

    def test_unknown_replica_raises_at_schedule_time(self):
        spec = self._spec(crash=False)
        spec.schedule.append(CrashEvent(at=0.3, replica="c9/r9"))
        with pytest.raises(ConfigurationError, match="c9/r9"):
            spec.build()


# --------------------------------------------------------------------------- #
# Satellite: partition healing overlapping reconfiguration
# --------------------------------------------------------------------------- #
class TestPartitionHealing:
    def _spec(self, shards: int = 1):
        spec = (
            Scenario("adv-heal")
            .clusters((4, "us-west1"), (4, "europe-west3"), (4, "us-west1"), (4, "europe-west3"))
            .engine("hotstuff")
            .threads(2)
            .partition(0, 1, at=0.25, duration=0.2)
            .join(1, at=0.3)  # reconfiguration in flight while the link is cut
            .duration(0.8, warmup=0.2)
            .seeds(23)
            .spec()
        )
        spec.shards = shards
        return spec

    def test_healing_leaves_no_stale_drop_rules(self):
        spec = self._spec()
        deployment = spec.build()
        deployment.run(duration=spec.duration, warmup=spec.warmup)
        assert deployment.network.drop_rules == []

    def test_drop_counts_match_across_shard_layouts(self):
        # A partition reads both clusters' live replicas, so asking for
        # forked workers runs it in one process; the rows must not move.
        def spec(shards):
            spec = self._spec(shards)
            spec.shard_parallel = shards > 1
            return spec

        rows = {shards: run_scenario(spec(shards)) for shards in (1, 2, 4)}
        dropped = {shards: row.network["messages_dropped"] for shards, row in rows.items()}
        assert dropped[1] > 0, "the partition should drop cross-cluster traffic"
        assert dropped[1] == dropped[2] == dropped[4]
        # And the rows agree byte-for-byte, not just on the drop counter.
        payloads = {row.to_json() for row in rows.values()}
        assert len(payloads) == 1


# --------------------------------------------------------------------------- #
# Event grammar: validation and serialization
# --------------------------------------------------------------------------- #
class TestEventGrammar:
    def _base_spec(self):
        return (
            Scenario("adv-grammar")
            .clusters(4, 4)
            .engine("hotstuff")
            .duration(0.5)
            .seeds(3)
            .spec()
        )

    @pytest.mark.parametrize(
        "event",
        [
            GrayReplicaEvent(at=0.1, factor=0.0, replica="c0/r1"),
            GrayReplicaEvent(at=0.1, scope="replica"),  # replica missing
            GrayReplicaEvent(at=0.1, scope="leader"),  # cluster missing
            GrayReplicaEvent(at=0.1, replica="c0/r1", duration=0.0),
            ClockSkewEvent(at=0.1, rate=0.0, replica="c0/r1"),
            ClockSkewEvent(at=0.1, scope="leader"),
            FlappingPartitionEvent(cluster_a=0, cluster_b=1, at=0.1, period=0.0),
            FlappingPartitionEvent(cluster_a=0, cluster_b=1, at=0.1, period=0.2, duty=1.5),
            FlappingPartitionEvent(cluster_a=0, cluster_b=1, at=0.1, period=0.2, cycles=0),
            FlappingPartitionEvent(
                cluster_a=0, cluster_b=1, at=0.1, period=0.2, direction="sideways"
            ),
            RegionOutageEvent(region="us-west1", at=0.1, duration=0.0),
        ],
    )
    def test_validate_rejects_malformed_events(self, event):
        spec = self._base_spec()
        spec.schedule.append(event)
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_adversity_spec_round_trips_through_dict(self):
        trace = RttTrace.synthetic(
            pairs=[("us-west1", "europe-west3", 148.0)], duration=0.6, seed=5
        )
        spec = (
            Scenario("adv-roundtrip")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .engine("hotstuff")
            .threads(2)
            .gray_leader(0, at=0.2, factor=40.0, duration=0.1)
            .clock_skew("c1/r2", at=0.25, rate=0.2)
            .flapping_partition(0, 1, at=0.3, period=0.1, duty=0.4, cycles=2, direction="a_to_b")
            .region_outage("europe-west3", at=0.4, duration=0.05)
            .rtt_trace(trace)
            .congestion()
            .cross_traffic("us-west1", "europe-west3", 1.0e7, start=0.2, stop=0.5)
            .duration(0.6, warmup=0.1)
            .seeds(7)
            .spec()
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()
        kinds = [type(event).kind for event in rebuilt.schedule]
        assert kinds == ["gray", "clock_skew", "flapping_partition", "region_outage"]
        assert rebuilt.rtt_trace is not None
        assert rebuilt.rtt_trace.segments == trace.segments
        assert rebuilt.congestion is not None
        assert len(rebuilt.congestion.streams) == 1

    def test_with_seed_deep_copies_trace_and_congestion(self):
        trace = trace_of({("us-west1", "europe-west3"): [(0.0, 140.0)]})
        spec = (
            Scenario("adv-copy")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .engine("hotstuff")
            .rtt_trace(trace)
            .congestion()
            .duration(0.5)
            .seeds(3)
            .spec()
        )
        clone = spec.with_seed(99)
        assert clone.rtt_trace is not spec.rtt_trace
        assert clone.rtt_trace.segments == spec.rtt_trace.segments
        assert clone.congestion is not spec.congestion
