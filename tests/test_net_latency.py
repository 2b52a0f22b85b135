"""Tests for the geo latency model (paper Table II)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net.latency import (
    LatencyModel,
    LatencyParameters,
    canonical_region,
    paper_rtt_matrix,
    region_rtt_ms,
)
from repro.sim.rng import SeededRng


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


class TestLatencyModel:
    def _model(self) -> LatencyModel:
        return LatencyModel(SeededRng(3), LatencyParameters(jitter_fraction=0.0))

    def test_intra_region_is_submillisecond(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "us-west1")
        assert model.one_way_latency("a", "b") < 0.002

    def test_cross_region_close_to_half_rtt(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "asia-south1")
        latency = model.one_way_latency("a", "b")
        assert latency == pytest.approx(0.214 / 2, rel=0.05)

    def test_bandwidth_term_scales_with_size(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "us-west1")
        small = model.one_way_latency("a", "b", size_bytes=0)
        large = model.one_way_latency("a", "b", size_bytes=10_000_000)
        assert large > small

    def test_set_rtt_override(self):
        model = self._model()
        model.place("a", "us-west1")
        model.place("b", "us-east5")
        model.set_rtt("us-west1", "us-east5", 400.0)
        assert model.one_way_latency("a", "b") == pytest.approx(0.2, rel=0.05)

    def test_unplaced_process_defaults_to_us(self):
        model = self._model()
        assert model.region_of("ghost") == "us-west1"

    def test_jitter_varies_latency(self):
        model = LatencyModel(SeededRng(4), LatencyParameters(jitter_fraction=0.2))
        model.place("a", "us-west1")
        model.place("b", "asia-south1")
        values = {round(model.one_way_latency("a", "b"), 6) for _ in range(20)}
        assert len(values) > 1

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
