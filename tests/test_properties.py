"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brd import canonical_recs
from repro.core.config import failure_threshold
from repro.core.replica import Execution
from repro.core.statemachine import ExecutionLedger, ExecutionPlan, KeyValueStore
from repro.core.types import Transaction, join_request, leave_request
from repro.errors import AgreementViolation
from repro.harness.metrics import MetricsCollector
from repro.net.crypto import Certificate, KeyRegistry
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator
from repro.workload.zipf import ZipfianGenerator

requests = st.builds(
    lambda kind, pid, cid: join_request(pid, cid) if kind else leave_request(pid, cid),
    st.booleans(),
    st.text(alphabet="abcdef", min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
)


class TestThresholdProperties:
    @given(st.integers(min_value=1, max_value=500))
    def test_failure_threshold_safety_bound(self, size):
        """f < size/3 always holds, and 2f+1 <= size (quorums exist)."""
        f = failure_threshold(size)
        assert 3 * f < size or size < 4
        assert 2 * f + 1 <= size

    @given(st.integers(min_value=1, max_value=160))
    def test_two_quorums_intersect_in_a_correct_replica(self, f):
        """For the paper's canonical cluster size n = 3f+1, two 2f+1 quorums
        overlap in at least f+1 replicas, hence in a correct one."""
        size = 3 * f + 1
        assert failure_threshold(size) == f
        quorum = 2 * f + 1
        assert 2 * quorum - size >= f + 1


class TestReconfigSetProperties:
    @given(st.lists(requests, max_size=10))
    def test_canonical_recs_idempotent(self, items):
        once = canonical_recs(items)
        assert canonical_recs(once) == once


class TestCertificateProperties:
    @given(st.sets(st.sampled_from([f"p{i}" for i in range(12)]), max_size=12),
           st.integers(min_value=1, max_value=9))
    def test_certificate_valid_iff_threshold_met(self, signers, threshold):
        registry = KeyRegistry(seed=1)
        members = [f"p{i}" for i in range(12)]
        for member in members:
            registry.register(member)
        cert = Certificate("digest")
        for signer in signers:
            cert.add(registry.sign(signer, "digest"))
        assert registry.certificate_valid(cert, members, threshold) == (len(signers) >= threshold)


class TestKernelProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=60))
    def test_events_fire_in_nondecreasing_time_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)


class TestWorkloadProperties:
    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=300), st.floats(min_value=0.0, max_value=1.5))
    def test_zipf_draws_stay_in_range(self, item_count, theta):
        zipf = ZipfianGenerator(item_count, theta, SeededRng(9))
        for _ in range(50):
            assert 0 <= zipf.next() < item_count

    @given(st.integers(min_value=0, max_value=2**31))
    def test_rng_streams_reproducible(self, seed):
        a = SeededRng(seed, "x")
        b = SeededRng(seed, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


#: (completion slot, client, txn number); few slots and clients force ties.
completions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["c0", "c1", "c10", "c2"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=60,
    unique_by=lambda entry: (entry[1], entry[2]),
)


def _record_all(metrics, entries):
    for slot, client, number in entries:
        metrics.record_transaction(f"t{number}", "write", 0.01, slot * 0.25, client)


def _canonical(entries):
    return sorted((slot * 0.25, client, f"t{number}") for slot, client, number in entries)


def _order(metrics):
    assert metrics._completion_times == [r.completed_at for r in metrics.transactions]
    return [(r.completed_at, r.client_id, r.txn_id) for r in metrics.transactions]


class TestCanonicalOrderProperties:
    """``canonicalize`` equals the full ``(completed_at, client_id, txn_id)``
    sort however the records arrived."""

    @given(completions)
    def test_in_order_records_with_ties(self, entries):
        metrics = MetricsCollector()
        _record_all(metrics, sorted(entries, key=lambda entry: entry[0]))
        metrics.canonicalize()
        assert _order(metrics) == _canonical(entries)

    @given(completions, st.randoms(use_true_random=False))
    def test_shuffled_records(self, entries, random):
        metrics = MetricsCollector()
        shuffled = list(entries)
        random.shuffle(shuffled)
        _record_all(metrics, shuffled)
        metrics.canonicalize()
        assert _order(metrics) == _canonical(entries)

    @given(completions, st.lists(st.integers(min_value=0, max_value=2), min_size=60, max_size=60))
    def test_merged_shard_lists(self, entries, shard_of):
        shards = [MetricsCollector() for _ in range(3)]
        for index, entry in enumerate(sorted(entries, key=lambda entry: entry[0])):
            _record_all(shards[shard_of[index]], [entry])
        merged = MetricsCollector()
        merged.merge_from(shards)
        assert _order(merged) == _canonical(entries)


#: (op, latency, completion time) of one record; includes ops that are
#: neither reads nor writes, and completion times on both window edges.
summary_records = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "join"]),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]).flatmap(
            lambda edge: st.one_of(st.just(edge), st.floats(min_value=0.0, max_value=4.0))
        ),
    ),
    max_size=40,
)


class TestSummaryProperties:
    """``summary()`` builds one window and returns exactly what the queries return."""

    @given(
        summary_records,
        st.sampled_from([0.0, 0.5, 1.0]),
        st.one_of(st.none(), st.sampled_from([1.5, 2.0, 3.0])),
    )
    @settings(max_examples=60)
    def test_summary_equals_the_queries_and_builds_one_window(self, records, start, end):
        metrics = MetricsCollector()
        for index, (op, latency, completed_at) in enumerate(records):
            metrics.record_transaction(f"t{index}", op, latency, completed_at, "c")
        metrics.set_window(start, end)
        expected = {
            "throughput_total": metrics.throughput(),
            "throughput_writes": metrics.throughput(op="write"),
            "throughput_reads": metrics.throughput(op="read"),
            "latency_mean": metrics.mean_latency(),
            "latency_mean_read": metrics.mean_latency(op="read"),
            "latency_mean_write": metrics.mean_latency(op="write"),
            "latency_p99": metrics.latency_percentile(0.99),
            "operations": float(metrics.committed_count()),
            "rounds": 0.0,
            "reconfigs_applied": 0.0,
        }
        windows = []
        build_window = metrics._windowed
        metrics._windowed = lambda op=None: windows.append(op) or build_window(op)
        summary = metrics.summary()
        # Bit-identical, not approximately equal: the summary is inside
        # every pinned fingerprint.
        assert summary == expected
        assert [repr(value) for value in summary.values()] == [repr(value) for value in expected.values()]
        assert windows == [None]


class TestStateMachineProperties:
    @given(st.lists(st.tuples(st.sampled_from("abcde"), st.text(max_size=4)), max_size=40))
    def test_replay_determinism(self, writes):
        """The same transaction sequence yields the same state, in one batch or one at a time."""
        first, second = KeyValueStore(), KeyValueStore()
        transactions = [
            Transaction(
                txn_id=f"t{index}", client_id="c", origin_replica="r",
                op="write", key=key, value=value,
            )
            for index, (key, value) in enumerate(writes)
        ]
        first.execute(ExecutionPlan(transactions))
        for txn in transactions:
            second.execute(ExecutionPlan([txn]))
        assert list(first.data.items()) == list(second.data.items())
        assert first.applied == second.applied


class _Executor:
    """The replica state stage 3 reads and writes, and a record of its replies."""

    def __init__(self, forwarded, batch_clients):
        self.process_id = "r0"
        self.leader = "r1"
        self.round_number = 7
        self.kv = KeyValueStore()
        self.front = SimpleNamespace(
            forwarded=dict(forwarded), batch_clients=set(batch_clients), pending_batch={}
        )
        self._forwarded = self.front.forwarded
        self._batch_clients = self.front.batch_clients
        self._pending_batch = self.front.pending_batch
        self.replies = []
        self.apl = SimpleNamespace(send=self._send)

    def _send(self, client_id, response):
        self.replies.append(
            (client_id, response.txn_id, response.value, response.committed_round, response.leader_hint)
        )


def _reference_execute(executor, data, ids, applied, transactions):
    """Stage 3 as it ran before batches had plans: one transaction at a time."""
    for transaction in transactions:
        # KeyValueStore.apply
        ids.append(transaction.txn_id)
        if transaction.is_read:
            value = data.get(transaction.key)
        else:
            data[transaction.key] = transaction.value or ""
            applied.append((transaction.txn_id, transaction.key))
            value = transaction.value
        # The replica's old per-transaction reply step
        was_ours = executor._forwarded.pop(transaction.txn_id, None) is not None
        if was_ours or transaction.origin_replica == executor.process_id:
            if transaction.client_id in executor._batch_clients:
                executor._pending_batch.setdefault(transaction.client_id, []).append(
                    (transaction.txn_id, value)
                )
                continue
            executor.replies.append(
                (transaction.client_id, transaction.txn_id, value, executor.round_number, executor.leader)
            )


_CLIENTS = ("c0", "c1", "c2")
_TXN_IDS = tuple(f"t{index}" for index in range(8))
bundle_transactions = st.builds(
    lambda txn_id, client, origin, op, key, value: Transaction(
        txn_id=txn_id, client_id=client, origin_replica=origin, op=op, key=key,
        value=None if op == "read" else value,
    ),
    st.sampled_from(_TXN_IDS),
    st.sampled_from(_CLIENTS),
    st.sampled_from(("r0", "r1", "r2")),
    st.sampled_from(("read", "write")),
    st.sampled_from(("a", "b", "c")),
    st.one_of(st.none(), st.text(alphabet="xyz", max_size=2)),
)


class TestBundleExecutionProperties:
    @settings(max_examples=200)
    @given(
        st.lists(st.lists(bundle_transactions, max_size=8), min_size=1, max_size=3),
        st.sets(st.sampled_from(_TXN_IDS + ("elsewhere",))),
        st.sets(st.sampled_from(_CLIENTS)),
        st.dictionaries(st.sampled_from(("a", "b", "c")), st.text(alphabet="pq", max_size=2)),
    )
    def test_bundle_path_equals_the_per_transaction_loop(self, bundles, forwarded, batch_clients, state):
        """Data, ledger, replies, batched acks and the ``_forwarded`` remainder
        all come out as the per-transaction loop left them, over several
        bundles of one round with repeated keys and repeated ids."""
        held = {txn_id: "retried" for txn_id in sorted(forwarded)}
        executor = _Executor(held, batch_clients)
        reference = _Executor(held, batch_clients)
        executor.kv.data = dict(state)
        data, ids, applied = dict(state), [], []
        for bundle in bundles:
            Execution(executor).execute_batch(bundle)
            _reference_execute(reference, data, ids, applied, bundle)
        assert list(executor.kv.data.items()) == list(data.items())
        assert executor.kv.ledger.ids == ids and executor.kv.ledger.applied == applied
        assert executor.replies == reference.replies
        assert executor._pending_batch == reference._pending_batch
        assert list(executor._forwarded) == list(reference._forwarded)

    def test_a_read_after_a_write_in_one_bundle_reads_that_write(self):
        def txn(txn_id, op, value=None):
            return Transaction(txn_id=txn_id, client_id="c0", origin_replica="r0", op=op, key="a", value=value)

        executor = _Executor({}, ())
        executor.kv.data = {"a": "old"}
        bundle = [txn("t0", "read"), txn("t1", "write", "new"), txn("t2", "read"), txn("t3", "write")]
        Execution(executor).execute_batch(bundle)
        assert [reply[2] for reply in executor.replies] == ["old", "new", "new", None]
        assert executor.kv.data == {"a": ""}


_KEYS = ("a", "b", "c", "d")
ledger_transactions = st.builds(
    lambda op, key, value: (op, key, None if op == "read" else value),
    st.sampled_from(("read", "write")),
    st.sampled_from(_KEYS),
    st.one_of(st.none(), st.text(alphabet="xyz", max_size=2)),
)
states = st.dictionaries(st.sampled_from(_KEYS + ("e",)), st.text(alphabet="pq", max_size=2))
store_actions = st.one_of(
    st.tuples(st.just("execute"), st.integers(0, 3)),
    st.tuples(st.just("read"), st.integers(0, 3), st.sampled_from(_KEYS + ("e",))),
    st.tuples(st.just("restore"), st.integers(0, 3), states, st.none() | st.integers(0, 8)),
    st.tuples(st.just("assign"), st.integers(0, 3), states),
)


def _oracle_execute(data, transactions):
    """The store before it shared its state: respond, then ``dict.update`` its own dict."""
    last_values, values = {}, []
    for transaction in transactions:
        if transaction.is_read:
            values.append(last_values.get(transaction.key, data.get(transaction.key)))
        else:
            last_values[transaction.key] = transaction.value or ""
            values.append(transaction.value)
    data.update(last_values)
    return values


class TestSharedStateProperties:
    @settings(max_examples=200)
    @given(
        st.lists(st.lists(ledger_transactions, max_size=6), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=4),
        st.lists(store_actions, max_size=40),
    )
    def test_stores_over_one_ledger_read_what_their_own_dicts_would_hold(self, rounds, count, actions):
        """Several stores at different cursors of one ledger, with reads,
        restores (with and without a round) and assigned data in between,
        read, snapshot and expose as ``data`` exactly what a private dict per
        store, updated batch by batch, would hold — item order included."""
        plans = [
            [
                Transaction(
                    txn_id=f"t{number}.{index}", client_id="c", origin_replica="r",
                    op=op, key=key, value=value,
                )
                for index, (op, key, value) in enumerate(batch)
            ]
            for number, batch in enumerate(rounds)
        ]
        ledger = ExecutionLedger()
        stores = [KeyValueStore(ledger) for _ in range(count)]
        oracles = [{} for _ in range(count)]
        next_round = [0] * count
        for action in actions:
            which = action[1] % count
            store, oracle = stores[which], oracles[which]
            if action[0] == "execute":
                number = next_round[which]
                if number == len(plans):
                    continue
                store.begin_round(number)
                plan = ledger.plan(plans[number], number)
                positions = range(len(plans[number]))
                assert store.execute(plan, positions) == _oracle_execute(oracle, plans[number])
                next_round[which] = number + 1
            elif action[0] == "read":
                assert store.read(action[2]) == oracle.get(action[2])
            elif action[0] == "restore":
                snapshot, round_number = dict(action[2]), action[3]
                if round_number is not None:
                    # A snapshot names a round some store has reached.
                    round_number = min(round_number, max(next_round))
                    next_round[which] = round_number
                store.restore(snapshot, round_number)
                oracles[which] = dict(snapshot)
                snapshot["mutated"] = "after"  # restoring copies
            else:
                store.data = dict(action[2])
                oracles[which] = dict(action[2])
            for store, oracle in zip(stores, oracles):
                assert list(store.snapshot().items()) == list(oracle.items())
                assert list(store.data.items()) == list(oracle.items())
                for key in _KEYS + ("e",):
                    assert store.read(key) == oracle.get(key)

    @given(
        st.lists(ledger_transactions, min_size=1, max_size=8).filter(
            lambda batch: any(op == "write" for op, _key, _value in batch)
        ),
        st.data(),
    )
    def test_a_store_that_writes_a_different_value_raises(self, batch, data):
        transactions = [
            Transaction(txn_id=f"t{index}", client_id="c", origin_replica="r", op=op, key=key, value=value)
            for index, (op, key, value) in enumerate(batch)
        ]
        writes = [index for index, transaction in enumerate(transactions) if not transaction.is_read]
        forked_at = data.draw(st.sampled_from(writes))
        honest = transactions[forked_at]
        forked = list(transactions)
        forked[forked_at] = Transaction(
            txn_id=honest.txn_id, client_id="c", origin_replica="r", op="write",
            key=honest.key, value=(honest.value or "") + "!",
        )
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        first.execute(ExecutionPlan(transactions))
        with pytest.raises(AgreementViolation, match=f"write-value position {writes.index(forked_at)}"):
            second.execute(ExecutionPlan(forked))
