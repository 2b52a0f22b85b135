"""The deployment-owned execution ledger: one copy of the total order, per-replica
windows onto it, and the always-on agreement check that comes with sharing it.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from helpers import small_deployment
from repro.core.statemachine import ExecutionLedger, KeyValueStore, LedgerView
from repro.core.types import Transaction
from repro.errors import AgreementViolation
from repro.harness.builder import Scenario


def txn(index: int, op: str = "write", key: str = "k", txn_id: str = "") -> Transaction:
    return Transaction(
        txn_id=txn_id or f"t{index}", client_id="c", origin_replica="r", op=op, key=key, value=f"v{index}"
    )


class TestLedgerViews:
    def test_views_compare_equal_to_the_lists_they_replace(self):
        ledger = ExecutionLedger()
        ahead, behind = KeyValueStore(ledger), KeyValueStore(ledger)
        batch = [txn(i, op="read" if i % 3 == 0 else "write", key=f"k{i % 4}") for i in range(10)]
        ids = [t.txn_id for t in batch]
        writes = [(t.txn_id, t.key) for t in batch if not t.is_read]
        for transaction in batch:
            ahead.apply(transaction)
        for transaction in batch[:4]:
            behind.apply(transaction)

        log = ahead.execution_log
        assert isinstance(log, LedgerView)
        assert log == ids and ids == log and not (log != ids)
        assert log != ids[:-1] and log != ids[::-1]
        assert len(log) == 10 and list(log) == ids
        assert log[0] == "t0" and log[-1] == "t9" and log[2:5] == ids[2:5] and log[::-2] == ids[::-2]
        assert isinstance(log[2:5], list)
        assert "t4" in log and "nope" not in log and log.index("t4") == 4
        with pytest.raises(IndexError):
            log[10]
        with pytest.raises(TypeError):
            log[0] = "x"
        assert ahead.applied_log == writes and ahead.applied == len(writes)

        # A lagging store sees its own prefix of the one stored order.
        assert behind.execution_log == ids[:4] == ahead.execution_log[:4]
        assert behind.applied_log == writes[: behind.applied]
        assert KeyValueStore().execution_log == [] and not KeyValueStore().applied_log
        assert ahead.executed("t9") and not behind.executed("t9") and behind.executed("t3")
        assert ledger.ids == ids and ledger.applied == writes

    def test_every_replica_of_a_deployment_reads_one_stored_order(self):
        deployment = small_deployment(seed=22)
        deployment.run(duration=1.0)
        ledger = deployment.ledger
        assert len(ledger.ids) > 100
        for replica in deployment.replicas.values():
            assert replica.kv.ledger is ledger
            log = replica.execution_log
            assert 0 < len(log) <= len(ledger.ids)
            assert log == ledger.ids[: len(log)]
            assert replica.kv.applied_log == ledger.applied[: replica.kv.applied]

    def test_a_joined_replicas_log_starts_at_its_snapshot_point(self):
        spec = (
            Scenario("ledger-join")
            .clusters((4, "us-west1"), (4, "us-west1"))
            .engine("hotstuff")
            .threads(4)
            .join(1, at=0.4)
            .duration(1.2)
            .seeds(5)
            .spec()
        )
        deployment = spec.build()
        deployment.run(duration=spec.duration)
        (joiner,) = [r for rid, r in deployment.replicas.items() if rid.startswith("joiner")]
        member = deployment.replicas[sorted(deployment.system_config.members(1))[0]]
        assert joiner.joined_at is not None and joiner.executed_rounds > 3
        joined, full = joiner.execution_log, member.execution_log
        assert 0 < len(joined) < len(full)
        # Nothing from before the snapshot, then exactly the member's order.
        offset = full.index(joined[0])
        assert offset > 0
        common = min(len(joined), len(full) - offset)
        assert joined[:common] == full[offset : offset + common]
        assert not joiner.kv.executed(full[0]) and joiner.kv.executed(joined[0])
        applied = joiner.kv.applied_log
        assert len(applied) == joiner.kv.applied > 0
        assert applied[0] in member.kv.applied_log and applied[0] != member.kv.applied_log[0]


class TestAgreementOracle:
    def test_a_replica_that_executes_a_different_transaction_raises(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        first.apply(txn(1))
        first.apply(txn(2))
        second.apply(txn(1))
        with pytest.raises(AgreementViolation, match="position 1"):
            second.apply(txn(3))

    def test_a_replica_that_writes_a_different_key_raises(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        first.apply(txn(1, key="a"))
        with pytest.raises(AgreementViolation, match="applied-write position 0"):
            second.apply(txn(1, key="b"))

    def test_a_diverging_replica_stops_the_run(self):
        deployment = small_deployment(seed=23)
        deployment.run(duration=0.5)

        class Diverging(KeyValueStore):
            __slots__ = ()

            def apply(self, transaction):
                forked = txn(0, txn_id=transaction.txn_id + "'", op=transaction.op, key=transaction.key)
                return super().apply(forked)

        deployment.replicas["c1/r2"].kv.__class__ = Diverging
        with pytest.raises(AgreementViolation):
            deployment.run(duration=0.5)


class TestMemoryIsLinearInOperations:
    def test_traced_bytes_per_committed_op_on_two_clusters_of_ten(self):
        """20 replicas execute every operation; what the run retains per
        operation must not scale with them.  ~2.6 KB/op today (the
        transaction, its metrics record and its signatures' memo entries);
        per-replica logs and batch-sized digests put it near 14 KB/op."""
        spec = (
            Scenario("ledger-memory")
            .clusters(10, 10)
            .engine("hotstuff_chained")
            .threads(16)
            .workload(read_fraction=0.05)
            .duration(1.0)
            .seeds(5)
            .spec()
        )
        deployment = spec.build()
        gc.collect()
        tracemalloc.start()
        try:
            metrics = deployment.run(duration=spec.duration)
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        operations = metrics.committed_count()
        assert operations > 1000
        assert retained / operations < 6000
