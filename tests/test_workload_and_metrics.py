"""Tests for the workload generators, clients, and metrics collector."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.messages import ClientRequest, ClientResponse
from repro.core.types import Transaction, make_transaction
from repro.errors import WorkloadError
from repro.harness.metrics import MetricsCollector, TransactionRecord
from repro.sim.rng import SeededRng
from repro.workload.ycsb import KEY_SPACE, ZIPF_THETA, YcsbConfig, YcsbWorkload
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


class TestPositionalBuilds:
    """The per-operation objects are built positionally on the hot path
    (``make_transaction``, the client turn, the replica's answers,
    ``record_transaction``): a field reorder must fail here instead of
    silently swapping ids and values."""

    @pytest.mark.parametrize(
        "cls, order",
        [
            (
                Transaction,
                ["txn_id", "client_id", "origin_replica", "op", "key", "value", "submitted_at", "size_bytes"],
            ),
            (ClientRequest, ["transaction"]),
            (ClientResponse, ["txn_id", "value", "committed_round", "leader_hint"]),
            (TransactionRecord, ["txn_id", "op", "latency", "completed_at", "client_id"]),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else "",
    )
    def test_field_order_the_call_sites_assume(self, cls, order):
        assert [spec.name for spec in fields(cls)] == order

    def test_make_transaction_equals_the_keyword_build(self):
        kw = dict(
            client_id="client-3",
            origin_replica="c0/r1",
            op="write",
            key="user7",
            value="v-1",
            submitted_at=0.25,
            size_bytes=512,
        )
        built = make_transaction(**kw)
        assert built.txn_id.startswith("client-3:")
        assert built == Transaction(txn_id=built.txn_id, **kw)
        read = make_transaction("client-3", "c0/r2", "read", "user8")
        assert read == Transaction(
            txn_id=read.txn_id, client_id="client-3", origin_replica="c0/r2", op="read", key="user8"
        )

    def test_ycsb_draws_the_stream_of_its_two_generators(self):
        # Bound draws and the prebuilt value prefix change no operation.
        workload = YcsbWorkload(YcsbConfig(read_fraction=0.5), SeededRng(12))
        rng = SeededRng(12)
        zipf = ZipfianGenerator(KEY_SPACE, ZIPF_THETA, rng.child("zipf"))
        writes = 0
        for _ in range(300):
            key = f"user{zipf.next()}"
            if rng.random() < 0.5:
                expected = ("read", key, None)
            else:
                writes += 1
                expected = ("write", key, "x" * (workload.value_size // 16) + f"-{writes}")
            assert workload.next_operation() == expected
        assert 100 < writes < 200


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
