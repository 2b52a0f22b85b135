"""Tests for the geo latency model (paper Table II)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.net import latency
from repro.net.crypto import KeyRegistry
from repro.net.latency import (
    LatencyModel,
    canonical_region,
    paper_rtt_matrix,
    region_rtt_ms,
)
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class TestRttTable:
    def test_paper_values(self):
        assert region_rtt_ms("US", "EU") == 148.0
        assert region_rtt_ms("US", "Asia") == 214.0
        assert region_rtt_ms("EU", "Asia") == 134.0

    def test_symmetry(self):
        assert region_rtt_ms("EU", "US") == region_rtt_ms("US", "EU")

    def test_diagonal_zero(self):
        for region in ("US", "EU", "Asia"):
            assert region_rtt_ms(region, region) == 0.0

    def test_alias_resolution(self):
        assert canonical_region("US") == "us-west1"
        assert canonical_region("asia") == "asia-south1"
        assert canonical_region("europe-west3") == "europe-west3"

    def test_unknown_pair_raises(self):
        with pytest.raises(ConfigurationError):
            region_rtt_ms("us-west1", "mars-north1")

    def test_paper_matrix_shape(self):
        matrix = paper_rtt_matrix()
        assert set(matrix) == {"US", "EU", "Asia"}
        assert matrix["US"]["Asia"] == 214.0
        assert matrix["Asia"]["US"] == 214.0


@dataclass
class Blob(Message):
    size: int = 0

    def estimated_size(self) -> int:
        return 128 + self.size


class Sink(Process):
    """Records the virtual time of every delivery."""

    def __init__(self, process_id, simulator):
        super().__init__(process_id, simulator)
        self.arrivals = []

    def on_message(self, sender, envelope):
        self.arrivals.append(self.now)


def jittered_model(jitter: float) -> LatencyModel:
    """A latency model built while ``JITTER_FRACTION`` is patched to ``jitter``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(latency, "JITTER_FRACTION", jitter)
        return LatencyModel()


def send_delays(dst_region, jitter=0.0, size=0, rtt=None, sends=1):
    """Send-to-delivery delay of ``sends`` messages from us-west1 through ``multicast``.

    The sends are a second apart, so none queues behind another at either
    end and each delay is one message's own.
    """
    simulator = Simulator(seed=3)
    model = jittered_model(jitter)
    network = Network(simulator, model, KeyRegistry(seed=3))
    sink = Sink("b", simulator)
    network.register(Process("a", simulator), "us-west1")
    network.register(sink, dst_region)
    if rtt is not None:
        model.set_rtt("us-west1", dst_region, rtt)
    for index in range(sends):
        message = Blob(size)
        simulator.schedule_at(float(index), lambda m=message: network.multicast("a", ("b",), m))
    simulator.run()
    return [arrival - index for index, arrival in enumerate(sink.arrivals)]


class TestLatencyModel:
    def _model(self) -> LatencyModel:
        return jittered_model(0.0)

    def test_intra_region_is_submillisecond(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "us-west1")
        assert model.pair_params("a", "b") == (0.0006, 0.0)
        (delay,) = send_delays("us-west1")
        assert delay < 0.002

    def test_cross_region_close_to_half_rtt(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "asia-south1")
        assert model.pair_params("a", "b") == (pytest.approx(0.214 / 2), 0.0)
        assert send_delays("asia-south1") == [pytest.approx(0.214 / 2, rel=0.05)]

    def test_bandwidth_term_scales_with_size(self):
        (small,) = send_delays("us-west1", size=0)
        (large,) = send_delays("us-west1", size=10_000_000)
        assert large - small == pytest.approx(10_000_000 / 2.0e8)

    def test_set_rtt_override(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "us-east5")
        model.set_rtt("us-west1", "us-east5", 400.0)
        assert model.pair_params("a", "b") == (pytest.approx(0.2), 0.0)
        assert send_delays("us-east5", rtt=400.0) == [pytest.approx(0.2, rel=0.05)]

    @pytest.mark.parametrize(
        "region, rtt_ms",
        [("europe-west3", 148.0), ("asia-south1", 214.0), ("us-east5", 52.0), ("asia-northeast1", 91.0)],
    )
    def test_every_region_from_us_west1_is_half_its_rtt_away(self, region, rtt_ms):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", region)
        assert model.pair_params("a", "b") == (pytest.approx(rtt_ms / 2000.0), 0.0)
        assert model.pair_params("b", "a") == model.pair_params("a", "b")
        assert send_delays(region) == [pytest.approx(rtt_ms / 2000.0, rel=0.05)]

    def test_set_rtt_replaces_a_memoised_pair(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "europe-west3")
        assert model.pair_params("a", "b") == (pytest.approx(0.074), 0.0)
        model.set_rtt("EU", "US", 60.0)
        assert model.pair_params("a", "b") == (pytest.approx(0.030), 0.0)
        assert model.pair_params("b", "a") == (pytest.approx(0.030), 0.0)

    def test_unplaced_process_defaults_to_us(self):
        model = self._model()
        assert model.region_of("ghost") == "us-west1"

    def test_jitter_varies_latency(self):
        model = jittered_model(0.2)
        model.place("a", "us-west1")
        model.place("b", "asia-south1")
        base, spread = model.pair_params("a", "b")
        assert spread == pytest.approx(0.2 * base)
        delays = send_delays("asia-south1", jitter=0.2, sends=20)
        assert len({round(delay, 6) for delay in delays}) > 1
        assert all(base - spread < delay < base + spread + 0.001 for delay in delays)

    def test_cross_group_pairs_are_sorted_and_deterministic(self):
        model = self._model()
        model.place("p1", "us-west1")
        model.place("p2", "europe-west3")
        model.place("p3", "asia-south1")
        model.place("p4", "us-east1")
        groups = {"p1": 0, "p2": 0, "p3": 1, "p4": 1}
        pairs = model._cross_group_region_pairs(groups)
        assert pairs == [
            ("europe-west3", "asia-south1"),
            ("europe-west3", "us-east1"),
            ("us-west1", "asia-south1"),
            ("us-west1", "us-east1"),
        ]
        assert pairs == model._cross_group_region_pairs(dict(reversed(groups.items())))
