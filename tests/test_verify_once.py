"""Checks run once per process: a batch digests itself, a verdict is shared.

Every replica of a simulation checks the same immutable objects its peers
check — the proposed batch, the leader's Σ, a remote cluster's bundle — and
the network already bills each check to the checking replica's simulated
CPU.  These tests pin that the Python work behind the checks runs once per
object (and verdict key), and that the memo never answers where the full
check would answer differently: under another membership, threshold or
coordinates, after a signer's entry is replaced, and never with a remembered
``False``.  Stages 2 and 3 follow the same rule per broadcast, round and
batch: one ``Inter`` envelope per round, one ``LocalShare`` pair per
``Inter``, one watch re-arm per replica round and one agreement compare per
batch placement, which never skips a compare the ledger has not passed.
"""

from __future__ import annotations

import pickle
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.consensus.interface as consensus_interface
import repro.core.replica as replica_module
import repro.core.types as core_types
import repro.net.message as net_message
from repro.consensus.interface import commit_digest
from repro.core import brd, messages
from repro.core.brd import CollectionEntry, CollectionProof, ready_digest, submit_digest
from repro.core.config import failure_threshold
from repro.core.remote_leader_change import RemoteLeaderChange
from repro.core.replica import GlobalSharing
from repro.core.statemachine import ExecutionLedger, ExecutionPlan, KeyValueStore
from repro.core.types import Batch, OperationsBundle, Transaction, join_request, make_transaction
from repro.errors import AgreementViolation
from repro.harness.builder import Scenario
from repro.net.crypto import Certificate, KeyRegistry, LinkSeal, VerdictMemo
from repro.net.message import Envelope
from repro.sim.simulator import DeadlinePool
from tests import helpers
from tests.test_core_brd import build_brd_cluster

#: Modules whose ``compact_digest`` a batch digest may go through.
_DIGEST_MODULES = (net_message, core_types, consensus_interface)


def _two_clusters_of_ten():
    """A short ``write_heavy``: 2×10 replicas, chained HotStuff, 95 % writes."""
    return (
        Scenario("verify-once")
        .clusters(10, 10)
        .engine("hotstuff_chained")
        .threads(16)
        .workload(read_fraction=0.05)
        .duration(0.8, warmup=0.0)
        .seeds(11)
        .build()
    )


class TestRunChecksOnce:
    def test_a_decided_batch_is_digested_once(self, monkeypatch):
        walks: Counter = Counter()
        original = net_message.compact_digest

        def counting(text):
            if text.startswith(("(Transaction(", "[Transaction(")):
                walks[text] += 1
            return original(text)

        for module in _DIGEST_MODULES:
            monkeypatch.setattr(module, "compact_digest", counting)
        deployment = _two_clusters_of_ten()
        metrics = deployment.run(duration=0.8)
        assert metrics.committed_count() > 0
        assert len(walks) >= 20, "the run decided too few batches to say anything"
        assert set(walks.values()) == {1}, max(walks.values())

    def test_each_bundle_and_sigma_is_checked_in_full_once_per_key(self, monkeypatch):
        remembered: Counter = Counter()
        holders = []  # keeps every checked object alive, so ids stay unique
        original_remember = VerdictMemo.remember_verdict

        def remember(self, key):
            if isinstance(self, (OperationsBundle, CollectionProof)):
                holders.append(self)
                remembered[(type(self).__name__, id(self), key)] += 1
            original_remember(self, key)

        checks: Counter = Counter()
        full_bundle_checks = []
        original_bundle_valid = GlobalSharing.bundle_valid
        original_collection_valid = brd.ByzantineReliableDissemination.collection_valid
        original_commit_digest = replica_module.commit_digest

        def bundle_valid(self, *args):
            checks["bundle"] += 1
            return original_bundle_valid(self, *args)

        def collection_valid(self, *args):
            checks["sigma"] += 1
            return original_collection_valid(self, *args)

        def bundle_commit_digest(*args):
            full_bundle_checks.append(args)
            return original_commit_digest(*args)

        monkeypatch.setattr(VerdictMemo, "remember_verdict", remember)
        monkeypatch.setattr(GlobalSharing, "bundle_valid", bundle_valid)
        monkeypatch.setattr(brd.ByzantineReliableDissemination, "collection_valid", collection_valid)
        monkeypatch.setattr(replica_module, "commit_digest", bundle_commit_digest)
        _two_clusters_of_ten().run(duration=0.8)

        assert set(remembered.values()) == {1}
        kinds = Counter(kind for kind, _, _ in remembered)
        # An honest run fails no check, so every full bundle check is
        # remembered once; everything else answered from the memo.
        assert len(full_bundle_checks) == kinds["OperationsBundle"] > 0
        assert checks["bundle"] >= 10 * kinds["OperationsBundle"]
        assert checks["sigma"] >= 9 * kinds["CollectionProof"] > 0

    def test_take_batch_returns_an_immutable_batch(self):
        deployment = helpers.small_deployment()
        leader = deployment.replicas["c0/r0"]
        ordering = leader.ordering
        for number in range(3):
            ordering.leader_queue.append(
                make_transaction("client", leader.process_id, "write", f"k{number}", "v")
            )
        batch = ordering.take_batch(99)
        assert type(batch) is Batch and isinstance(batch, tuple) and len(batch) == 3
        for mutator in ("append", "extend", "insert", "pop", "remove", "sort", "clear"):
            assert not hasattr(batch, mutator)
        with pytest.raises(TypeError):
            batch[0] = batch[1]
        digest = batch.digest()
        assert digest is batch.digest()
        copy = pickle.loads(pickle.dumps(batch))
        assert type(copy) is Batch and copy == batch and copy.digest() == digest

    def test_each_default_bundle_has_its_own_batch(self):
        # The execution ledger keys its plans by the batch's identity.
        first, second = OperationsBundle(0, 1), OperationsBundle(0, 2)
        assert type(first.transactions) is Batch and first.transactions == ()
        assert first.transactions is not second.transactions


def _fake_replica(registry, view, parallel=True):
    """Just what ``GlobalSharing.bundle_valid`` reads of a replica."""
    return SimpleNamespace(
        view=view,
        members=lambda cluster_id: tuple(sorted(view[cluster_id])),
        faults=lambda cluster_id: failure_threshold(len(view[cluster_id])),
        config=SimpleNamespace(parallel_reconfig=parallel),
        network=SimpleNamespace(registry=registry),
    )


def _signed(registry, digest, signers, kind):
    certificate = Certificate(digest, kind=kind)
    for signer in signers:
        certificate.add(registry.sign(signer, digest))
    return certificate


def _sealed_bundle(registry, members, signers):
    """Cluster 1's bundle of round 7, signed by ``signers``."""
    batch = Batch(make_transaction("client", members[0], "write", f"k{n}", "v") for n in range(5))
    return OperationsBundle(
        cluster_id=1,
        round_number=7,
        transactions=batch,
        reconfigs=(),
        txn_certificate=_signed(registry, commit_digest(1, 7, batch), signers, "commit"),
        recs_ready_certificate=_signed(registry, ready_digest(1, 7, ()), signers, "ready"),
    )


@pytest.fixture
def stage2(monkeypatch):
    """A bundle of a 4-member cluster signed by 3, a checker, and a full-check counter."""
    registry = KeyRegistry(seed=3)
    members = ("a", "b", "c", "d")
    for process_id in (*members, "e", "f", "g"):
        registry.register(process_id)
    view = {0: frozenset({"x"}), 1: frozenset(members)}
    sharing = GlobalSharing(_fake_replica(registry, view))
    full = []
    original = replica_module.commit_digest
    monkeypatch.setattr(
        replica_module, "commit_digest", lambda *args: full.append(args) or original(*args)
    )
    bundle = _sealed_bundle(registry, members, ("a", "b", "c"))
    return SimpleNamespace(registry=registry, view=view, sharing=sharing, bundle=bundle, full=full)


def _change_view(stage2, cluster_id, members):
    """A view change as a replica makes it: the per-epoch caches start over."""
    stage2.view[cluster_id] = members
    stage2.sharing.forget_view()


class TestBundleVerdict:
    def test_a_second_check_answers_from_the_memo(self, stage2):
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        assert len(stage2.full) == 1

    def test_a_new_membership_is_checked_in_full(self, stage2):
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        _change_view(stage2, 1, stage2.view[1] | {"e"})  # a join: f stays 1
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        _change_view(stage2, 1, stage2.view[1] - {"d"})  # a leave
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        assert len(stage2.full) == 3

    def test_a_higher_threshold_is_checked_in_full_and_fails_every_time(self, stage2):
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        _change_view(stage2, 1, stage2.view[1] | {"e", "f", "g"})  # seven members: 2f + 1 = 5
        assert not stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        assert not stage2.sharing.bundle_valid(1, 7, stage2.bundle)  # never a remembered False
        assert len(stage2.full) == 3

    def test_relabelled_coordinates_are_checked_in_full(self, stage2):
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        stage2.view[2] = stage2.view[1]
        assert not stage2.sharing.bundle_valid(2, 7, stage2.bundle)
        assert not stage2.sharing.bundle_valid(1, 8, stage2.bundle)
        assert not stage2.sharing.bundle_valid(1, 8, stage2.bundle)
        assert len(stage2.full) == 4

    def test_a_forged_replacement_revokes_the_verdict(self, stage2):
        bundle, registry = stage2.bundle, stage2.registry
        members = tuple(sorted(stage2.view[1]))
        assert stage2.sharing.bundle_valid(1, 7, bundle)
        certificate = bundle.txn_certificate
        certificate.add(registry.forge("c", certificate.digest))
        assert not registry.certificate_valid(certificate, members, 3, digest=certificate.digest)
        assert not stage2.sharing.bundle_valid(1, 7, bundle)
        # The ready certificate's replacement revokes it just the same.
        fresh = _sealed_bundle(registry, members, ("a", "b", "c"))
        assert stage2.sharing.bundle_valid(1, 7, fresh)
        fresh.recs_ready_certificate.add(registry.forge("a", fresh.recs_ready_certificate.digest))
        assert not stage2.sharing.bundle_valid(1, 7, fresh)

    def test_a_hit_reads_no_view_and_hashes_two_fields(self, stage2):
        sharing = stage2.sharing
        assert sharing.bundle_valid(1, 7, stage2.bundle)
        token = sharing.check_tokens[1]
        assert (token, 7) in stage2.bundle.verdicts
        assert stage2.registry.verdict_token(1, tuple(sorted(stage2.view[1])), 3, True) is token
        sharing.replica.members = sharing.replica.faults = None  # a hit calls neither
        assert sharing.bundle_valid(1, 7, stage2.bundle)
        assert len(stage2.full) == 1

    def test_a_second_registry_gets_its_own_token(self, stage2):
        other = KeyRegistry(seed=3)
        inputs = (1, ("a", "b", "c", "d"), 3, True)
        assert other.verdict_token(*inputs) is not stage2.registry.verdict_token(*inputs)
        assert stage2.registry.verdict_token(*inputs) is stage2.registry.verdict_token(*inputs)

    def test_the_single_workflow_key_is_its_own(self, stage2):
        """A bundle passing with parallel reconfiguration is checked again without it."""
        assert stage2.sharing.bundle_valid(1, 7, stage2.bundle)
        single = GlobalSharing(_fake_replica(stage2.registry, stage2.view, parallel=False))
        assert single.bundle_valid(1, 7, stage2.bundle)
        assert len(stage2.full) == 2


class TestBundleVerdictOnAViewChange:
    """A real replica's view changes start its bundle verdicts over.

    ``bundle_valid`` keeps one token per remote cluster until the view
    changes, so each path that changes a replica's view must drop it:
    cluster 1 growing from four members to seven raises its quorum from
    three to five, and a bundle signed by three must then fail in full.
    """

    JOINERS = ("c1/r4", "c1/r5", "c1/r6")

    @pytest.fixture
    def checker(self, monkeypatch):
        deployment = helpers.small_deployment()
        replica = deployment.replicas["c0/r0"]
        for joiner in self.JOINERS:
            deployment.registry.register(joiner)
        full = []
        original = replica_module.commit_digest
        monkeypatch.setattr(
            replica_module, "commit_digest", lambda *args: full.append(args) or original(*args)
        )
        members = replica.members(1)
        bundle = _sealed_bundle(deployment.registry, members, members[:3])
        assert replica.sharing.bundle_valid(1, 7, bundle)
        assert replica.sharing.bundle_valid(1, 7, bundle)
        assert len(full) == 1 and set(replica.sharing.check_tokens) == {1}
        return SimpleNamespace(replica=replica, bundle=bundle, full=full)

    def _assert_checked_in_full_at_five(self, checker):
        replica, sharing = checker.replica, checker.replica.sharing
        assert replica.members(1)[-3:] == self.JOINERS and 2 * replica.faults(1) + 1 == 5
        assert sharing.check_tokens == {}
        assert not sharing.bundle_valid(1, 7, checker.bundle)
        assert not sharing.bundle_valid(1, 7, checker.bundle)
        assert len(checker.full) == 3

    def test_an_applied_join_drops_the_token(self, checker):
        for joiner in self.JOINERS:
            checker.replica.execution.apply_reconfig(1, join_request(joiner, 1, "us-west1"))
            assert checker.replica.sharing.check_tokens == {}
        self._assert_checked_in_full_at_five(checker)

    def test_an_adopted_state_transfer_drops_the_token(self, checker):
        replica = checker.replica
        state = replica.execution.curr_state(replica.round_number + 1)
        state.system_view[1] = state.system_view[1] + self.JOINERS
        senders = [member for member in replica.local_members() if member != replica.process_id]
        for sender in senders[: replica.local_faults() + 1]:
            replica.requester.on_curr_state(sender, state)
        assert replica.round_number == state.round_number
        self._assert_checked_in_full_at_five(checker)


def _collection_proof(network, recs, senders=("p0", "p1", "p2")):
    """Σ of cluster 0, round 1: ``senders`` each submitted ``recs``."""
    entries = tuple(
        CollectionEntry(
            sender=sender,
            recs=recs,
            signature=network.registry.sign(sender, submit_digest(0, 1, recs)),
        )
        for sender in senders
    )
    return CollectionProof(cluster_id=0, round_number=1, entries=entries)


@pytest.fixture
def sigma(monkeypatch):
    """A Σ over one join, the BRD members checking it, and a full-check counter.

    A full check derives one submit digest per entry; a memo hit derives none.
    """
    _, network, hosts = build_brd_cluster()
    recs = (join_request("new1", 0),)
    full = []
    original = brd.ByzantineReliableDissemination._phase_digest

    def phase_digest(self, kind, phase_recs):
        if kind == brd._SUBMIT:
            full.append(phase_recs)
        return original(self, kind, phase_recs)

    monkeypatch.setattr(brd.ByzantineReliableDissemination, "_phase_digest", phase_digest)
    return SimpleNamespace(recs=recs, proof=_collection_proof(network, recs), hosts=hosts, full=full)


class TestCollectionVerdict:
    def test_members_share_one_verdict(self, sigma):
        assert all(host.brd.collection_valid(sigma.proof, sigma.recs) for host in sigma.hosts)
        assert len(sigma.full) == 3  # one full check of three entries

    def test_another_aggregate_is_checked_in_full(self, sigma):
        checker = sigma.hosts[1].brd
        assert checker.collection_valid(sigma.proof, sigma.recs)
        assert not checker.collection_valid(sigma.proof, ())
        assert not checker.collection_valid(sigma.proof, ())  # never a remembered False
        assert len(sigma.full) == 9

    def test_another_member_set_is_checked_in_full(self, sigma):
        checker = sigma.hosts[1].brd
        assert checker.collection_valid(sigma.proof, sigma.recs)
        checker.members_fn = helpers.members_fn(("p1", "p2", "p3", "p4"))
        assert not checker.collection_valid(sigma.proof, sigma.recs)  # p0's entry no longer counts
        assert not checker.collection_valid(sigma.proof, sigma.recs)
        assert len(sigma.full) == 3 + 2 + 2


class TestPickledStateHoldsNoRegistry:
    def test_checked_objects_pickle_without_their_verdicts(self, stage2, sigma):
        proof = sigma.proof
        assert sigma.hosts[1].brd.collection_valid(proof, sigma.recs)
        bundle = stage2.bundle
        bundle.recs_collection_certificate = proof
        assert stage2.sharing.bundle_valid(1, 7, bundle)
        for checked in (bundle, proof, bundle.txn_certificate, bundle.recs_ready_certificate):
            assert checked.verdicts
            # A KeyRegistry holds keyed hashers, which do not pickle.
            copy = pickle.loads(pickle.dumps(checked))
            assert "verdicts" not in vars(copy) and not copy.verdicts
        copy = pickle.loads(pickle.dumps(bundle))
        assert copy.digest() == bundle.digest()
        assert stage2.sharing.bundle_valid(1, 7, copy)
        assert len(stage2.full) == 2  # the copy was checked in full


class TestEmptyPhaseDigestBound:
    def test_the_intern_table_stays_bounded_and_the_run_unchanged(self, monkeypatch):
        spec = (
            Scenario("intern-bound")
            .clusters(4, 4)
            .engine("hotstuff")
            .threads(4)
            .duration(1.0, warmup=0.0)
            .seeds(5)
            .spec()
        )
        expected = spec.run().to_json()

        class Watched(dict):
            peak = 0
            inserts = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                Watched.inserts += 1
                Watched.peak = max(Watched.peak, len(self))

        monkeypatch.setattr(brd, "_EMPTY_PHASE_DIGESTS_MAX", 16)
        monkeypatch.setattr(brd, "_EMPTY_PHASE_DIGESTS", Watched())
        assert spec.run().to_json() == expected
        assert Watched.peak == 16 and Watched.inserts > 3 * 16


@pytest.fixture(scope="module")
def stage23_counts():
    """Stage-2/3 step counts of a fault-free 4×4 run (1 s, seed 11)."""
    counts: Counter = Counter()
    plans = {}  # id -> plan, kept alive so ids stay unique

    def counting(cls, name, count):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            count(self, *args)
            return original(self, *args, **kwargs)

        patch.setattr(cls, name, wrapper)

    def sealed(envelope, sender, payload, signature=None, *rest):
        # A signed send is a sealed envelope (one per fan-out).
        counts["inter_signatures"] += isinstance(payload, messages.Inter) and type(signature) is LinkSeal

    def remote_pool(kind):
        def count(pool, *args):
            counts[kind] += pool._label.endswith(":remote")

        return count

    def execute(store, plan, positions=()):
        plans[id(plan)] = plan
        counts["full_compares"] += plan.placed != (store.ledger, store._cursor, store._applied_start + store.applied)
        counts["executions"] += 1

    with pytest.MonkeyPatch.context() as patch:
        counting(Envelope, "__init__", sealed)
        counting(GlobalSharing, "inter_broadcast", lambda *_: counts.update(["inter_broadcasts"]))
        counting(messages.Inter, "__init__", lambda *_: counts.update(["Inter"]))
        counting(messages.LocalShare, "__init__", lambda *_: counts.update(["LocalShare"]))
        counting(RemoteLeaderChange, "start_round", lambda *_: counts.update(["watch_rounds"]))
        counting(DeadlinePool, "arm", remote_pool("watch_arm"))
        counting(DeadlinePool, "arm_many", remote_pool("watch_arm_many"))
        counting(KeyValueStore, "execute", execute)
        deployment = (
            Scenario("once-per-broadcast")
            .clusters(4, 4, 4, 4)
            .threads(4)
            .duration(1.0, warmup=0.0)
            .seeds(11)
            .build()
        )
        assert deployment.run(duration=1.0).committed_count() > 0
    counts["batches"] = len(plans)
    return counts


class TestStageTwoOncePerBroadcast:
    """Each stage-2/3 step runs once per broadcast, round or batch, not once
    per receiver; the simulated outcome is pinned by the goldens."""

    def test_one_inter_envelope_signature_per_broadcast(self, stage23_counts):
        assert stage23_counts["inter_broadcasts"] > 20
        assert stage23_counts["inter_signatures"] == stage23_counts["inter_broadcasts"]

    def test_two_local_shares_per_inter_message(self, stage23_counts):
        assert stage23_counts["Inter"] == stage23_counts["inter_broadcasts"]
        assert stage23_counts["LocalShare"] == 2 * stage23_counts["Inter"]

    def test_one_watch_re_arm_per_replica_round(self, stage23_counts):
        assert stage23_counts["watch_rounds"] > 16 * 20
        assert stage23_counts["watch_arm_many"] == stage23_counts["watch_rounds"]
        assert stage23_counts["watch_arm"] == 0

    def test_one_full_agreement_compare_per_decided_batch(self, stage23_counts):
        assert stage23_counts["batches"] > 4 * 20
        assert stage23_counts["full_compares"] == stage23_counts["batches"]
        assert stage23_counts["executions"] == 16 * stage23_counts["batches"]


def _writes(*names, value="v"):
    return [
        Transaction(txn_id=f"t-{name}", client_id="c", origin_replica="r", op="write", key=f"k-{name}", value=value)
        for name in names
    ]


class TestPlacementMemo:
    """A placed plan skips the compare only where it was placed, in that ledger."""

    def test_another_plan_at_a_placed_position_still_violates_agreement(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        placed = ExecutionPlan(_writes("a", "b"))
        first.execute(placed)
        assert placed.placed == (ledger, 0, 0)
        with pytest.raises(AgreementViolation):
            second.execute(ExecutionPlan(_writes("a", "x")))
        with pytest.raises(AgreementViolation):
            second.execute(ExecutionPlan(_writes("a", "b", value="other")))

    def test_the_same_plan_at_another_position_takes_the_full_compare(self):
        ledger = ExecutionLedger()
        first, second = KeyValueStore(ledger), KeyValueStore(ledger)
        head, tail = ExecutionPlan(_writes("a")), ExecutionPlan(_writes("b"))
        first.execute(head)
        first.execute(tail)
        assert tail.placed == (ledger, 1, 1)
        with pytest.raises(AgreementViolation):
            second.execute(tail)  # where ``head`` stands

    def test_a_plan_placed_in_one_ledger_is_written_into_another(self):
        plan = ExecutionPlan(_writes("a", "b"))
        KeyValueStore().execute(plan)
        other = KeyValueStore()
        other.execute(plan)
        assert other.ledger.ids == ["t-a", "t-b"]
        assert other.read("k-b") == "v"
