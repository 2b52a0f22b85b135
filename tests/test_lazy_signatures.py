"""The link layer's lazy signatures (``KeyRegistry.sign_message``).

Four claims carry the optimisation and each gets a test: a lazy signature
is indistinguishable from the eager one it replaces, for every protocol
message class; the payload a signature holds is not mutated after it is
handed to the network (so a digest walked late equals one walked at send);
an honest fault-free run never walks an envelope digest at all, and a
remote leader change walks only its ``LComplaint`` quorum; and a forged or
foreign signature passed in explicitly is still dropped at the link (that
one sits with the other link checks in ``test_net_network.py``).  The same
populated instances also check that a message carrying a certificate bills
its verification.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import MISSING, fields, is_dataclass

import pytest

from helpers import silent_inter_scenario
from repro.consensus.leader_election import LeaderElection
from repro.consensus.registry import ENGINES
from repro.core.messages import (
    CORE_MESSAGE_TYPES,
    ClientBatchResponse,
    LComplaint,
    LocalShare,
    ShareRequest,
)
from repro.core.types import OperationsBundle, ReconfigRequest, make_transaction
from repro.harness.builder import Scenario
from repro.net.crypto import Certificate, KeyRegistry, MessageSignature, Signature
from repro.net.message import Message

SIGNERS = ("c0/r0", "c0/r1", "c0/r2")


def _registry(seed: int = 3) -> KeyRegistry:
    registry = KeyRegistry(seed=seed)
    for signer in SIGNERS:
        registry.register(signer)
    return registry


# ---------------------------------------------------------------------- #
# One populated instance of every protocol message class
# ---------------------------------------------------------------------- #
def _transaction(index: int = 0):
    return make_transaction(
        client_id="client-0", origin_replica="c0/r1", op="write", key=f"k|{index}", value="v" * 8
    )


def _certificate(registry: KeyRegistry, digest: str = "cert|digest") -> Certificate:
    certificate = Certificate(digest, kind="commit")
    for signer in SIGNERS:
        certificate.add(registry.sign(signer, digest))
    return certificate


def _field_values(registry: KeyRegistry):
    """A non-trivial value per field annotation the message classes use."""
    reconfigs = (ReconfigRequest("join", "c0/r9", 0, "us-west1"), ReconfigRequest("leave", "c0/r2", 0))
    bundle = OperationsBundle(
        cluster_id=0,
        round_number=4,
        transactions=[_transaction(0), _transaction(1)],
        reconfigs=reconfigs,
        txn_certificate=_certificate(registry, "txn|digest"),
        recs_ready_certificate=_certificate(registry, "recs|digest"),
    )
    return {
        "int": 3,
        "float": 0.25,
        "str": "text|with|bars",
        "Any": (_transaction(2), _transaction(3)),
        "Optional[str]": "value",
        "Transaction": _transaction(4),
        "Tuple[Transaction, ...]": (_transaction(5), _transaction(6)),
        "Tuple[Tuple[str, Optional[str]], ...]": (("t1", "v"), ("t2", None)),
        "OperationsBundle": bundle,
        "Optional[OperationsBundle]": bundle,
        "bool": True,
        # A complaint's quorum is made of *envelope* signatures.
        "Tuple[Signature, ...]": tuple(
            registry.sign_message(signer, LComplaint(1, 0, 4, 0)) for signer in SIGNERS
        ),
        "Optional[Signature]": registry.sign(SIGNERS[0], "inner|digest"),
        "Certificate": _certificate(registry),
        "Optional[Certificate]": _certificate(registry, "prepared|digest"),
        "Tuple[ReconfigRequest, ...]": reconfigs,
        "Tuple[str, ...]": SIGNERS,
        "Dict[str, str]": {"k1": "v1", "k2": "v2"},
        "Dict[int, Tuple[str, ...]]": {0: SIGNERS, 1: ("c1/r0",)},
    }


def _protocol_message_types():
    types = list(CORE_MESSAGE_TYPES) + list(LeaderElection.MESSAGE_TYPES)
    for name in sorted(ENGINES):
        types.extend(ENGINES[name].MESSAGE_TYPES)
    return list(dict.fromkeys(types))


def _instance(message_type, registry: KeyRegistry) -> Message:
    values = _field_values(registry)
    kwargs = {}
    for spec in fields(message_type):
        annotation = spec.type if isinstance(spec.type, str) else spec.type.__name__
        # An unknown annotation fails here, so a new message field has to be
        # given a representative value before this suite passes again.
        kwargs[spec.name] = values[annotation]
    return message_type(**kwargs)


MESSAGE_TYPES = _protocol_message_types()


class TestLazyEqualsEager:
    def test_every_engine_and_core_class_is_covered(self):
        names = {cls.__name__ for cls in MESSAGE_TYPES}
        assert {"ClientBatchRequest", "LComplaint", "HsPhase", "ChLock", "BsAccept"} <= names
        assert "ElectionComplaint" in names

    @pytest.mark.parametrize("message_type", MESSAGE_TYPES, ids=lambda cls: cls.__name__)
    def test_lazy_signature_equals_the_eager_one(self, message_type):
        registry = _registry()
        message = _instance(message_type, registry)
        # No field was left at a default: the digest walks real content.
        assert all(
            getattr(message, spec.name) is not None
            and (spec.default is MISSING or getattr(message, spec.name) != spec.default)
            for spec in fields(message)
        )
        lazy = registry.sign_message(SIGNERS[0], message)
        assert type(lazy) is MessageSignature and lazy.payload is message
        assert registry.counters()["envelope_digests_read"] == 0
        eager = registry.sign(SIGNERS[0], message.digest())
        assert type(eager) is Signature
        assert lazy.digest == message.digest()
        assert lazy.digest is lazy.digest  # walked once, then kept
        # (Walking a complaint also walks the envelope signatures it carries.)
        assert registry.envelope_digests_read[message_type.__name__] == 1
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert repr(lazy) == repr(eager)
        assert lazy.token == eager.token
        assert registry.verify(lazy)
        # A certificate over the message digest takes either form.
        certificate = Certificate(message.digest())
        certificate.add(lazy)
        certificate.add(eager)
        assert certificate.signatures[SIGNERS[0]] is eager

    @pytest.mark.parametrize(
        "message",
        [
            LocalShare(round_number=4, cluster_id=0),
            ShareRequest(round_number=4, cluster_id=0),
            ClientBatchResponse(committed_round=4, departed=True),
        ],
        ids=["header-LocalShare", "ShareRequest", "departed-ClientBatchResponse"],
    )
    def test_stage2_control_messages_sign_lazily_too(self, message):
        # The header and the departure notice leave fields at their
        # defaults, which the populated instances above never do.
        registry = _registry()
        lazy = registry.sign_message(SIGNERS[0], message)
        eager = registry.sign(SIGNERS[0], message.digest())
        assert lazy == eager and lazy.digest == message.digest()
        assert registry.verify(lazy)
        assert type(pickle.loads(pickle.dumps(lazy))) is Signature
        assert message.cached_size() == 128

    def test_a_header_is_told_apart_from_the_full_share(self):
        registry = _registry()
        full = _instance(LocalShare, registry)
        header = LocalShare(round_number=full.round_number, cluster_id=full.cluster_id)
        assert header.digest() != full.digest()
        assert header.cached_size() < full.cached_size()
        departed = ClientBatchResponse(committed_round=4, departed=True)
        assert departed.digest() != ClientBatchResponse(committed_round=4).digest()

    @pytest.mark.parametrize("message_type", MESSAGE_TYPES, ids=lambda cls: cls.__name__)
    def test_pickles_as_a_plain_materialised_signature(self, message_type):
        registry = _registry()
        message = _instance(message_type, registry)
        lazy = registry.sign_message(SIGNERS[1], message)
        shipped = pickle.loads(pickle.dumps(lazy))
        assert type(shipped) is Signature
        assert shipped == lazy
        assert shipped.digest == message.digest()
        assert shipped.verified_by is None
        # The receiving worker's registry is a deterministic twin.
        assert _registry().verify(shipped)

    def test_certificate_carriers_bill_their_verification(self):
        # Checking a certificate or a quorum of signatures is O(quorum); the
        # default cost bills one verify, which undercounts receiver CPU.
        def quorum(value):
            if isinstance(value, tuple):
                return any(isinstance(item, Signature) for item in value)
            return isinstance(value, Certificate)

        registry = _registry()
        carriers = []
        for message_type in MESSAGE_TYPES:
            message = _instance(message_type, registry)
            if any(quorum(getattr(message, spec.name)) for spec in fields(message)):
                carriers.append(message_type)
        assert {"BrdValid", "RComplaint", "HsPhase", "ChProposal", "BsDecide"} <= {
            cls.__name__ for cls in carriers
        }
        unbilled = [cls.__name__ for cls in carriers if cls.verification_cost is Message.verification_cost]
        assert unbilled == []

    def test_unknown_signer_rejected(self):
        from repro.errors import CryptoError

        with pytest.raises(CryptoError):
            _registry().sign_message("mallory", _instance(CORE_MESSAGE_TYPES[0], _registry()))

    def test_cross_registry_check_derives_the_digest_and_fails(self):
        # A second trust domain never answers from the memo: it reads token
        # and digest of the lazy signature and rejects it.
        ours, theirs = _registry(seed=3), _registry(seed=4)
        lazy = ours.sign_message(SIGNERS[0], _instance(CORE_MESSAGE_TYPES[0], ours))
        assert not theirs.verify(lazy)
        assert ours.counters()["envelope_digests_read"] == 1
        assert ours.verify(lazy) and lazy.verified_by is ours

    def test_counters_tell_the_three_kinds_of_work_apart(self):
        registry = _registry()
        message = _instance(CORE_MESSAGE_TYPES[0], registry)
        before = registry.counters()
        registry.sign(SIGNERS[0], "d")
        registry.sign_message(SIGNERS[0], message)
        registry.sign_message(SIGNERS[1], message).digest
        after = registry.counters()
        assert {key: after[key] - before[key] for key in after} == {
            "signatures_minted": 1,
            "envelope_signatures": 2,
            "envelope_digests_read": 1,
        }


# ---------------------------------------------------------------------- #
# Payloads are not mutated after they are handed to the network
# ---------------------------------------------------------------------- #
def _snapshot(value):
    """Structural copy of a payload that ignores every per-instance cache.

    Walks dataclass fields and containers only, so the digest, size and
    ``repr`` caches kept in instance ``__dict__``s cannot mask a mutation
    the way comparing two (cached) ``digest()`` calls would.
    """
    if isinstance(value, Signature):
        return ("sig", value.signer, value.digest)
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__, *(_snapshot(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, (list, tuple)):
        return tuple(_snapshot(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(key), _snapshot(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(item) for item in value))
    return value


def _churn_scenario(engine: str) -> Scenario:
    return (
        Scenario("immutable-payloads")
        .clusters((4, "us-west1"), (4, "europe-west3"), (5, "us-west1"))
        .engine(engine)
        .threads(2)
        .timeouts(1.0)
        .config(retry_timeout=1.0)
        .crash("c0/r3", at=0.4)
        .join(1, at=0.6)
        .leave("c2/r4", at=0.8)
        .byzantine_leader(1, at=1.2)
        .duration(4.0, warmup=0.0)
        .seeds(5)
    )


#: Payload classes whose embedded certificate is still collecting votes when
#: it is broadcast: the HotStuff leader keeps adding late votes to the round
#: certificate it already sent (same object), so a digest walked late would
#: cover more signatures than one walked at send.  Pre-existing aliasing,
#: harmless to the lazy signature only because nothing reads these
#: envelopes' digests — which the read counter below pins.
LATE_VOTE_CARRIERS = {"HsPhase", "ChLock"}


class TestPayloadsStayImmutable:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_no_payload_changes_after_send(self, engine):
        spec = _churn_scenario(engine).spec()
        deployment = spec.build()
        registry = deployment.registry
        mint = registry.sign_message
        minted = []

        def recording_mint(signer, payload):
            signature = mint(signer, payload)
            minted.append((signature, payload.digest(), hash(_snapshot(payload))))
            return signature

        registry.sign_message = recording_mint
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        assert metrics.committed_count() > 500
        assert len(metrics.reconfigs) >= 2 and metrics.joins_completed
        assert all(r.rlc.remote_changes_applied >= 1 for r in deployment.cluster_replicas(1))
        seen = Counter(type(signature.payload).__name__ for signature, _, _ in minted)
        assert {"ClientRequest", "Inter", "LocalShare", "LComplaint", "RComplaint",
                "ClusterComplaint", "RequestJoin", "RequestLeave", "CurrState"} <= set(seen)
        changed = Counter()
        for signature, digest_at_mint, snapshot_at_mint in minted:
            # What a reader gets now is what an eager walk at send produced.
            assert signature.digest == digest_at_mint
            if hash(_snapshot(signature.payload)) != snapshot_at_mint:
                changed[type(signature.payload).__name__] += 1
        assert set(changed) <= LATE_VOTE_CARRIERS, dict(changed)


# ---------------------------------------------------------------------- #
# Who reads an envelope digest
# ---------------------------------------------------------------------- #
class TestEnvelopeDigestReads:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_fault_free_run_reads_none(self, engine):
        spec = (
            Scenario("no-reads")
            .clusters(4, 4)
            .engine(engine)
            .threads(4)
            .duration(1.0, warmup=0.1)
            .seeds(7)
            .spec()
        )
        deployment = spec.build()
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        counters = deployment.registry.counters()
        assert metrics.committed_count() > 500
        assert counters["envelope_signatures"] > metrics.committed_count()
        assert counters["signatures_minted"] > 0
        assert counters["envelope_digests_read"] == 0
        assert deployment.registry.envelope_digests_read == {}

    def test_remote_leader_change_reads_only_its_lcomplaint_quorum(self):
        spec = silent_inter_scenario().spec()
        deployment = spec.build()
        silenced = deployment.replicas["c1/r1"].leader
        deployment.run(duration=spec.duration, warmup=spec.warmup)
        reads = deployment.registry.envelope_digests_read
        assert set(reads) == {"LComplaint"}
        # Each accepting replica checks a 2f+1 quorum at least once.
        assert reads["LComplaint"] >= 3
        assert reads["LComplaint"] < deployment.registry.counters()["envelope_signatures"] / 100
        for replica in deployment.cluster_replicas(1):
            assert replica.rlc.remote_changes_applied >= 1
            assert replica.leader != silenced
