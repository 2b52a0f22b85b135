"""Tests for the workload generators, clients, and metrics collector."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.harness.metrics import MetricsCollector
from repro.sim.rng import SeededRng
from repro.workload.ycsb import YcsbConfig, YcsbWorkload
from repro.workload.zipf import ZipfianGenerator


class TestZipfian:
    def test_values_within_keyspace(self):
        zipf = ZipfianGenerator(100, 0.99, SeededRng(1))
        for _ in range(500):
            assert 0 <= zipf.next() < 100

    def test_skew_prefers_low_ranks(self):
        zipf = ZipfianGenerator(1000, 0.99, SeededRng(2))
        draws = [zipf.next() for _ in range(3000)]
        head = sum(1 for d in draws if d < 100)
        assert head > len(draws) * 0.4

    def test_theta_zero_is_roughly_uniform(self):
        zipf = ZipfianGenerator(10, 0.0, SeededRng(3))
        draws = [zipf.next() for _ in range(5000)]
        counts = [draws.count(i) for i in range(10)]
        assert max(counts) < 2 * min(counts)

    def test_probabilities_sum_to_one(self):
        zipf = ZipfianGenerator(50, 0.99, SeededRng(4))
        total = sum(zipf.probability(i) for i in range(50))
        assert total == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0, 0.99, SeededRng(5))
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, -1.0, SeededRng(5))
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, 0.99, SeededRng(5)).probability(10)


class TestYcsb:
    def test_read_fraction_respected(self):
        workload = YcsbWorkload(YcsbConfig(read_fraction=0.85), SeededRng(6))
        ops = [workload.next_operation()[0] for _ in range(4000)]
        reads = ops.count("read") / len(ops)
        assert 0.80 < reads < 0.90

    def test_write_only_workload(self):
        workload = YcsbWorkload(YcsbConfig(read_fraction=0.0), SeededRng(7))
        assert all(workload.next_operation()[0] == "write" for _ in range(100))

    def test_writes_have_values_reads_do_not(self):
        workload = YcsbWorkload(YcsbConfig(read_fraction=0.5), SeededRng(8))
        for op, key, value in (workload.next_operation() for _ in range(200)):
            if op == "write":
                assert value is not None
            else:
                assert value is None
            assert key.startswith("user")

    def test_invalid_config_rejected(self):
        with pytest.raises(WorkloadError):
            YcsbConfig(read_fraction=1.5).validate()


class TestMetricsCollector:
    def _populated(self) -> MetricsCollector:
        metrics = MetricsCollector()
        for index in range(10):
            metrics.record_transaction(
                txn_id=f"t{index}",
                op="write" if index % 2 else "read",
                latency=0.01 * (index + 1),
                completed_at=float(index),
                client_id="c",
            )
        metrics.record_round(0, 1, 0.0, 0.01, 0.02, 0.025, transactions=5, reconfigs=1)
        metrics.record_round(0, 2, 0.03, 0.05, 0.08, 0.081, transactions=5, reconfigs=0)
        return metrics

    def test_counts_and_throughput(self):
        metrics = self._populated()
        metrics.set_window(0.0, 10.0)
        assert metrics.committed_count() == 10
        assert metrics.committed_count(op="read") == 5
        assert metrics.throughput(duration=10.0) == pytest.approx(1.0)

    def test_window_excludes_warmup(self):
        metrics = self._populated()
        metrics.set_window(5.0, 10.0)
        assert metrics.committed_count() == 5

    def test_latency_statistics(self):
        metrics = self._populated()
        metrics.set_window(0.0, None)
        assert metrics.mean_latency() == pytest.approx(0.055)
        assert metrics.mean_latency(op="read") < metrics.mean_latency(op="write")
        assert metrics.latency_percentile(0.99) >= metrics.latency_percentile(0.5)

    def test_stage_breakdown_averages(self):
        metrics = self._populated()
        breakdown = metrics.stage_breakdown()
        assert breakdown["stage1"] == pytest.approx((0.01 + 0.02) / 2)
        assert breakdown["stage2"] == pytest.approx((0.01 + 0.03) / 2)
        assert breakdown["stage3"] > 0

    def test_throughput_timeseries_buckets(self):
        metrics = self._populated()
        series = metrics.throughput_timeseries(bucket=2.0, until=10.0)
        assert len(series) == 5
        assert sum(v * 2.0 for _, v in series) == pytest.approx(10.0)

    def test_empty_collector_is_safe(self):
        metrics = MetricsCollector()
        assert metrics.throughput() == 0.0
        assert metrics.mean_latency() == 0.0
        assert metrics.latency_percentile(0.9) == 0.0
        assert metrics.stage_breakdown()["stage1"] == 0.0
        assert metrics.summary()["operations"] == 0.0
