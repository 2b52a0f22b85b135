"""The link layer's lazy signatures (``LinkSeal``, ``MessageSignature``).

Five claims carry the optimisation and each gets a test: a sealed
envelope's lazy signature is indistinguishable from the eager
``registry.sign(signer, payload.digest())``, for every protocol message
class; it is made once per envelope and only when read; the
payload a signature holds is not mutated after it is handed to the network
(so a digest walked late equals one walked at send); an honest fault-free
run never materialises an envelope signature nor walks an envelope digest,
and a remote leader change walks only its ``LComplaint`` quorum; and a
forged or foreign signature passed in explicitly is still dropped at the
link (the foreign kinds sit with the other link checks in
``test_net_network.py``).  The same populated instances also check that a
message carrying a certificate bills its verification.
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
from repro.errors import CryptoError
from repro.harness.builder import Scenario
from repro.net import network as network_module
from repro.net.crypto import Certificate, KeyRegistry, LinkSeal, MessageSignature, Signature
from repro.net.latency import LatencyModel
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.message import Envelope, Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator

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
            registry.link_seal(signer).sign(LComplaint(1, 0, 4, 0)) for signer in SIGNERS
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
        envelope = Envelope(SIGNERS[0], message, registry.link_seal(SIGNERS[0]))
        lazy = envelope.signature
        assert type(lazy) is MessageSignature and lazy.payload is message
        assert envelope.signature is lazy  # materialised once, then kept
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
        assert registry.verify(lazy) and lazy.verified_by is registry
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
        lazy = registry.link_seal(SIGNERS[0]).sign(message)
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
        lazy = registry.link_seal(SIGNERS[1]).sign(message)
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
        with pytest.raises(CryptoError):
            _registry().link_seal("mallory")

    def test_cross_registry_check_derives_the_digest_and_fails(self):
        # A second trust domain never answers from the memo: it reads token
        # and digest of the lazy signature and rejects it.
        ours, theirs = _registry(seed=3), _registry(seed=4)
        lazy = ours.link_seal(SIGNERS[0]).sign(_instance(CORE_MESSAGE_TYPES[0], ours))
        assert not theirs.verify(lazy)
        assert ours.counters()["envelope_digests_read"] == 1
        assert ours.verify(lazy) and lazy.verified_by is ours

    def test_counters_tell_the_three_kinds_of_work_apart(self):
        registry = _registry()
        message = _instance(CORE_MESSAGE_TYPES[0], registry)
        before = registry.counters()
        registry.sign(SIGNERS[0], "d")
        registry.link_seal(SIGNERS[0]).stamp().sign(message)
        registry.link_seal(SIGNERS[1]).stamp().sign(message).digest
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
    def test_no_payload_changes_after_send(self, engine, monkeypatch):
        spec = _churn_scenario(engine).spec()
        deployment = spec.build()
        sealed = []

        class RecordingEnvelope(Envelope):
            """Records each signed send where it happens: the sealed envelope."""

            __slots__ = ()

            def __init__(self, sender, payload, signature=None, *rest):
                super().__init__(sender, payload, signature, *rest)
                if signature.__class__ is LinkSeal:
                    sealed.append((self, payload.digest(), hash(_snapshot(payload))))

        monkeypatch.setattr(network_module, "Envelope", RecordingEnvelope)
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        assert metrics.committed_count() > 500
        assert len(metrics.reconfigs) >= 2 and metrics.joins_completed
        assert all(r.rlc.remote_changes_applied >= 1 for r in deployment.cluster_replicas(1))
        seen = Counter(type(envelope.payload).__name__ for envelope, _, _ in sealed)
        assert {"ClientRequest", "Inter", "LocalShare", "LComplaint", "RComplaint",
                "ClusterComplaint", "RequestJoin", "RequestLeave", "CurrState"} <= set(seen)
        changed = Counter()
        for envelope, digest_at_send, snapshot_at_send in sealed:
            # What a reader gets now is what an eager walk at send produced.
            assert envelope.signature.digest == digest_at_send
            if hash(_snapshot(envelope.payload)) != snapshot_at_send:
                changed[type(envelope.payload).__name__] += 1
        assert set(changed) <= LATE_VOTE_CARRIERS, dict(changed)


# ---------------------------------------------------------------------- #
# One seal per link: the signature is made when something reads it
# ---------------------------------------------------------------------- #
class _Inbox(Process):
    def __init__(self, process_id, simulator):
        super().__init__(process_id, simulator)
        self.envelopes = []

    def on_message(self, sender, envelope):
        self.envelopes.append(envelope)


def _wired(names=("a", "b", "c")):
    simulator = Simulator(seed=9)
    network = Network(simulator, LatencyModel(), KeyRegistry(seed=9))
    inboxes = {name: _Inbox(name, simulator) for name in names}
    for inbox in inboxes.values():
        network.register(inbox, "us-west1")
    return simulator, network, inboxes


class TestLinkSeal:
    def test_materialised_once_and_shared_by_a_fan_out(self):
        simulator, network, inboxes = _wired()
        AuthenticatedPerfectLink("a", network).send_many(["a", "b", "c"], LComplaint(1, 0, 4, 0))
        simulator.run()
        (mine,), (theirs,), (other,) = (inboxes[name].envelopes for name in "abc")
        assert mine is theirs is other
        assert type(mine._signature) is LinkSeal
        signature = mine.signature
        assert type(signature) is MessageSignature and signature.signer == "a"
        assert mine._signature is signature
        assert theirs.signature is signature and other.signature is signature
        assert network.registry.counters()["envelope_signatures"] == 1

    def test_pickles_to_a_plain_signature_a_twin_verifies(self):
        registry = _registry()
        message = _instance(LComplaint, registry)
        envelope = Envelope(SIGNERS[1], message, registry.link_seal(SIGNERS[1]), 0.5, 300, 0.001)
        shipped = pickle.loads(pickle.dumps(envelope))
        assert type(shipped) is Envelope and type(shipped.signature) is Signature
        assert shipped.signature == registry.sign(SIGNERS[1], message.digest())
        assert shipped.signature.verified_by is None
        assert _registry().verify(shipped.signature)
        assert (shipped.sender, shipped.sent_at, shipped.size_bytes, shipped.processing) == (
            SIGNERS[1], 0.5, 300, 0.001
        )
        # The sender's envelope keeps the signature it materialised to ship.
        assert type(envelope._signature) is MessageSignature

    def test_counts_one_envelope_signature_per_signed_send(self):
        simulator, network, _ = _wired()
        link = AuthenticatedPerfectLink("a", network)
        group = AuthenticatedBestEffortBroadcast("a", network, lambda: ("a", "b", "c"))
        counted = lambda: network.registry.counters()["envelope_signatures"]
        link.send("b", LComplaint(1, 0, 4, 0))
        assert counted() == 1
        link.send("a", LComplaint(1, 0, 4, 0))  # self-sends stay unsigned
        assert counted() == 1
        link.send_many(["b", "c"], LComplaint(1, 0, 4, 0))
        group.broadcast(LComplaint(1, 0, 4, 0))
        assert counted() == 3
        simulator.run()
        assert network.registry.counters()["envelope_digests_read"] == 0

    def test_an_unregistered_signer_has_no_link(self):
        simulator, network, _ = _wired()
        with pytest.raises(CryptoError):
            AuthenticatedPerfectLink("mallory", network)

    def test_an_explicit_forgery_is_still_dropped(self):
        simulator, network, inboxes = _wired()
        message = LComplaint(1, 0, 4, 0)
        network.multicast("a", ["b", "c"], message, network.registry.forge("a", message.digest()))
        AuthenticatedPerfectLink("a", network).send("b", message)
        simulator.run()
        assert len(inboxes["b"].envelopes) == 1 and inboxes["c"].envelopes == []
        assert network.stats.messages_dropped == 2


# ---------------------------------------------------------------------- #
# Who reads an envelope digest
# ---------------------------------------------------------------------- #
class TestEnvelopeDigestReads:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_fault_free_run_reads_none(self, engine, monkeypatch):
        # The shape of the ``e0_closed`` benchmark workload (two LAN
        # clusters of four, closed-loop clients): no reader of an envelope
        # signature, so no seal may turn into one.
        materialised = Counter()
        sign = LinkSeal.sign

        def counting_sign(seal, payload):
            materialised[type(payload).__name__] += 1
            return sign(seal, payload)

        monkeypatch.setattr(LinkSeal, "sign", counting_sign)
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
        assert materialised == {}

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
