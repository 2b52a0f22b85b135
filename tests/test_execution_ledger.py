"""The deployment-owned execution ledger: one copy of the total order, per-replica
windows onto it, and the always-on agreement check that comes with sharing it.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from helpers import small_deployment
from repro.core import statemachine
from repro.core.statemachine import ExecutionLedger, ExecutionPlan, KeyValueStore, LedgerView
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
        ahead.execute(ExecutionPlan(batch))
        behind.execute(ExecutionPlan(batch[:4]))

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
        assert joiner.joined_at is not None and joiner.execution.executed_rounds > 3
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
        first.execute(ExecutionPlan([txn(1), txn(2)]))
        second.execute(ExecutionPlan([txn(1)]))
        with pytest.raises(AgreementViolation, match="position 1"):
            second.execute(ExecutionPlan([txn(3)]))

    def test_a_replica_that_writes_a_different_key_raises(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        first.execute(ExecutionPlan([txn(1, key="a")]))
        with pytest.raises(AgreementViolation, match="applied-write position 0"):
            second.execute(ExecutionPlan([txn(1, key="b")]))

    def test_a_bundle_that_differs_at_its_third_position_names_that_ledger_position(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        prefix = [txn(0), txn(1)]
        bundle = [txn(i) for i in range(2, 7)]
        first.execute(ExecutionPlan(prefix))
        first.execute(ExecutionPlan(bundle))
        second.execute(ExecutionPlan(prefix))
        forked = bundle[:2] + [txn(9)] + bundle[3:]
        with pytest.raises(AgreementViolation, match=r"^execution position 4: .*'t9'.*'t4'"):
            second.execute(ExecutionPlan(forked))

    def test_an_applied_write_key_mismatch_inside_a_bundle_raises(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        reads_then_writes = [txn(1, op="read", key="a"), txn(2, key="a"), txn(3, key="b")]
        first.execute(ExecutionPlan(reads_then_writes))
        forked = reads_then_writes[:2] + [txn(3, key="c")]
        with pytest.raises(AgreementViolation, match=r"applied-write position 1: .*'c'.*'b'"):
            second.execute(ExecutionPlan(forked))

    def test_a_store_extends_a_ledger_that_holds_part_of_its_bundle(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        first.execute(ExecutionPlan([txn(1), txn(2), txn(3)]))
        second.execute(ExecutionPlan([txn(1), txn(2)]))
        second.execute(ExecutionPlan([txn(3), txn(4)]))
        assert ledger.ids == ["t1", "t2", "t3", "t4"] and ledger.index["t4"] == 3
        assert second.applied_log == [(f"t{i}", "k") for i in range(1, 5)]

    def test_a_diverging_replica_stops_the_run(self):
        deployment = small_deployment(seed=23)
        deployment.run(duration=0.5)

        class Diverging(KeyValueStore):
            __slots__ = ()

            def execute(self, plan, positions=()):
                forked = [
                    txn(0, txn_id=t.txn_id + "'", op=t.op, key=t.key) for t in plan.transactions
                ]
                return super().execute(ExecutionPlan(forked), positions)

        deployment.replicas["c1/r2"].kv.__class__ = Diverging
        with pytest.raises(AgreementViolation):
            deployment.run(duration=0.5)

    def test_the_replicas_of_a_deployment_share_one_plan_per_batch(self, monkeypatch):
        built = []

        class Counted(statemachine.ExecutionPlan):
            __slots__ = ()

            def __init__(self, transactions, round_number=0):
                built.append(round_number)
                super().__init__(transactions, round_number)

        monkeypatch.setattr(statemachine, "ExecutionPlan", Counted)
        deployment = small_deployment(seed=24)
        deployment.run(duration=1.0)
        replicas = deployment.replicas.values()
        clusters = len(deployment.system_config.clusters)
        executions = sum(r.execution.executed_rounds * clusters for r in replicas)
        # Each cluster's batch of a round is planned once, whoever executes it.
        assert executions > 100
        assert len(built) == max(r.execution.executed_rounds for r in replicas) * clusters
        assert len(built) * len(replicas) == executions


def _retained_by_run(spec):
    """Build ``spec`` and run it; returns the deployment, its metrics and the traced bytes the run left."""
    deployment = spec.build()
    gc.collect()
    tracemalloc.start()
    try:
        metrics = deployment.run(duration=spec.duration)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return deployment, metrics, retained


class TestMemoryIsLinearInOperations:
    def test_traced_bytes_per_committed_op_on_two_clusters_of_ten(self):
        """20 replicas execute every operation; what the run retains per
        operation must not scale with them.  ~0.83 KB/op today (the
        transaction, its metrics record and its signatures' memo entries);
        a key/value dict per replica put it at 1.1 KB/op, keeping every
        decided round's engine state at 2.4 KB/op, and per-replica logs and
        batch-sized digests near 14 KB/op."""
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
        _deployment, metrics, retained = _retained_by_run(spec)
        operations = metrics.committed_count()
        assert operations > 1000
        assert retained / operations < 1000

    def test_traced_bytes_per_replica_on_sixteen_clusters_of_four(self):
        """64 replicas share one key/value state through the ledger, so what
        a run retains per replica is its protocol state, not a copy of every
        key: ~134 KB per replica today, 181 KB with a dict per replica."""
        spec = (
            Scenario("ledger-state")
            .clusters(*[4] * 16)
            .engine("hotstuff")
            .threads(8)
            .workload(read_fraction=0.5)
            .duration(1.5)
            .seeds(5)
            .spec()
        )
        deployment, metrics, retained = _retained_by_run(spec)
        assert metrics.committed_count() > 10000
        assert retained / len(deployment.replicas) < 150_000
