"""Hamava protocol messages (inter-cluster, leader change, reconfiguration).

Message names follow the paper: ``Inter`` / ``Local`` for stage 2,
``LComplaint`` / ``RComplaint`` / ``Complaint`` for the heterogeneous remote
leader change, ``RequestJoin`` / ``RequestLeave`` / ``Ack`` / ``CurrState``
for reconfiguration, and the BRD messages ``Recs`` (submit), ``Agg``,
``Echo``, ``Ready``, ``Valid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.types import OperationsBundle, ReconfigRequest, Transaction
from repro.net.crypto import Certificate, Signature
from repro.net.message import Message


# ---------------------------------------------------------------------- #
# Client <-> replica
# ---------------------------------------------------------------------- #
@dataclass
class ClientRequest(Message):
    """A client submits one transaction to a replica."""

    transaction: Transaction

    def estimated_size(self) -> int:
        return 128 + self.transaction.size_bytes

    # One addition: cheaper than writing and probing a per-instance memo.
    cached_size = estimated_size


@dataclass
class ClientResponse(Message):
    """A replica's response for one executed (or locally served) transaction.

    ``leader_hint`` names the responder's current cluster leader so clients
    can route subsequent writes straight to it (standard BFT client
    behaviour — PBFT/BFT-SMaRt clients track the primary), skipping the
    per-write forward hop from a contacted non-leader.
    """

    txn_id: str
    value: Optional[str] = None
    committed_round: int = 0
    leader_hint: str = ""

    def estimated_size(self) -> int:
        return 192

    # A constant: cheaper than writing and probing a per-instance memo.
    cached_size = estimated_size


@dataclass
class ClientBatchRequest(Message):
    """An open-loop population submits one window's operations in one envelope.

    Client-side batching: all operations that arrived within one batching
    window and share a target replica travel as a single wire message, so
    the client boundary costs O(windows) messages instead of O(operations).
    """

    transactions: Tuple[Transaction, ...] = ()

    def estimated_size(self) -> int:
        return 128 + sum(t.size_bytes for t in self.transactions)


@dataclass
class ClientBatchResponse(Message):
    """A replica's batched responses to one population.

    ``entries`` holds ``(txn_id, value)`` pairs — reads served immediately
    (lease-covered or leader-local) and writes acknowledged when their
    round executes, flushed once per execution instead of one envelope per
    transaction.  ``departed`` is the replica's last word when its own leave
    executes: the population stops sending to it and re-sends at once what
    it still had in flight there.
    """

    entries: Tuple[Tuple[str, Optional[str]], ...] = ()
    committed_round: int = 0
    leader_hint: str = ""
    departed: bool = False

    def estimated_size(self) -> int:
        return 128 + 64 * len(self.entries)


@dataclass
class ReadLeaseGrant(Message):
    """The cluster leader's periodic read-lease grant to its replicas.

    While a grant is live (``granted_at + duration`` in the future, same
    ``view_ts`` as the current leader), a follower may answer batched reads
    from its local store without consulting consensus: the leader promises
    not to execute writes that contradict the lease-covered state until the
    lease expires, and a new leader withholds its first grant for one full
    lease duration so every old-leader lease lapses first.
    """

    cluster_id: int
    view_ts: int
    granted_at: float
    duration: float

    def estimated_size(self) -> int:
        return 160


# ---------------------------------------------------------------------- #
# Stage 2: inter-cluster communication (Alg. 1)
# ---------------------------------------------------------------------- #
@dataclass
class Inter(Message):
    """Leader-to-remote-replicas shipment of a cluster's round operations."""

    round_number: int
    cluster_id: int
    bundle: OperationsBundle

    def estimated_size(self) -> int:
        return self.bundle.size_bytes()

    def verification_cost(self) -> int:
        cost = 1
        for cert in (self.bundle.txn_certificate, self.bundle.recs_ready_certificate):
            if cert is not None:
                cost += len(cert)
        return cost

    def shares(self) -> Tuple["LocalShare", "LocalShare"]:
        """The full ``LocalShare`` of this bundle and its header, built once per instance.

        Every target of one multicast receives this same ``Inter`` object and
        shares the same two (immutable) messages with its cluster.
        """
        cache = self.__dict__
        shares = cache.get("_shares_cache")
        if shares is None:
            shares = cache["_shares_cache"] = (
                LocalShare(round_number=self.round_number, cluster_id=self.cluster_id, bundle=self.bundle),
                LocalShare(round_number=self.round_number, cluster_id=self.cluster_id),
            )
        return shares


@dataclass
class LocalShare(Message):
    """Local re-broadcast of a remote cluster's operations ("Local" in Alg. 1).

    Send-time cost covers the envelope signature only: a receiver validates
    the bundle's certificates at most once per (cluster, round) — duplicate
    and stale-round shares are dropped before any certificate is touched —
    so the certificate work is charged in-handler via
    ``Network.charge_verification`` by the receiver that really performs
    it, not priced up front for every copy.

    A *header* (``bundle=None``, 128 bytes) tells the other Inter targets
    that the first one shared the bundle, so they stay quiet; a target that
    holds a header but no Inter asks its sender with a ``ShareRequest``.
    """

    round_number: int
    cluster_id: int
    bundle: Optional[OperationsBundle] = None

    def estimated_size(self) -> int:
        bundle = self.bundle
        return 128 if bundle is None else bundle.size_bytes()

    def verification_cost(self) -> int:
        return 1


@dataclass
class ShareRequest(Message):
    """An Inter target that got a header but no Inter asks for the bundle."""

    round_number: int
    cluster_id: int


# ---------------------------------------------------------------------- #
# Heterogeneous remote leader change (Alg. 2)
# ---------------------------------------------------------------------- #
@dataclass
class LComplaint(Message):
    """Local complaint about a remote cluster's leader."""

    target_cluster: int
    complaint_number: int
    round_number: int
    origin_cluster: int


@dataclass
class RComplaint(Message):
    """Remote complaint carrying a local quorum of LComplaint signatures."""

    complaint_number: int
    complaining_cluster: int
    signatures: Tuple[Signature, ...]
    round_number: int

    def estimated_size(self) -> int:
        return 192 + 96 * len(self.signatures)

    def verification_cost(self) -> int:
        return max(1, len(self.signatures))


@dataclass
class ClusterComplaint(Message):
    """Local broadcast of an accepted remote complaint ("Complaint" in Alg. 2)."""

    complaint_number: int
    complaining_cluster: int
    signatures: Tuple[Signature, ...]
    round_number: int

    def estimated_size(self) -> int:
        return 192 + 96 * len(self.signatures)

    def verification_cost(self) -> int:
        return max(1, len(self.signatures))


# ---------------------------------------------------------------------- #
# Reconfiguration collection (Alg. 3) and kick-start (Alg. 10)
# ---------------------------------------------------------------------- #
@dataclass
class RequestJoin(Message):
    """A process asks to join a cluster."""

    cluster_id: int
    round_number: int
    region: str = ""


@dataclass
class RequestLeave(Message):
    """A replica asks to leave its cluster."""

    cluster_id: int
    round_number: int


@dataclass
class ReconfigAck(Message):
    """Acknowledgement that a replica stored a join/leave request."""

    cluster_id: int
    round_number: int
    members: Tuple[str, ...] = ()


@dataclass
class CurrState(Message):
    """State transfer sent to a joining replica during kick-start."""

    cluster_id: int
    round_number: int
    members: Tuple[str, ...]
    state_snapshot: Dict[str, str] = field(default_factory=dict)
    system_view: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    leader: str = ""
    leader_ts: int = 0

    def estimated_size(self) -> int:
        return 512 + 64 * len(self.state_snapshot) + 48 * sum(
            len(members) for members in self.system_view.values()
        )


# ---------------------------------------------------------------------- #
# Byzantine Reliable Dissemination (Alg. 5/6)
# ---------------------------------------------------------------------- #
@dataclass
class BrdSubmit(Message):
    """A replica's collected reconfiguration set, sent to the BRD leader."""

    cluster_id: int
    round_number: int
    view_ts: int
    recs: Tuple[ReconfigRequest, ...]
    signature: Optional[Signature] = None

    def estimated_size(self) -> int:
        return 192 + 128 * len(self.recs)


@dataclass
class BrdAgg(Message):
    """The BRD leader's aggregation of a quorum of submitted sets."""

    cluster_id: int
    round_number: int
    view_ts: int
    recs: Tuple[ReconfigRequest, ...]
    collection_certificate: Certificate = field(default_factory=lambda: Certificate(""))
    attestation_kind: str = "collection"  # "collection", "echo", or "ready"

    def estimated_size(self) -> int:
        return 256 + 128 * len(self.recs) + 96 * len(self.collection_certificate)

    def verification_cost(self) -> int:
        return max(1, len(self.collection_certificate))


@dataclass
class BrdEcho(Message):
    """Echo of an accepted aggregation."""

    cluster_id: int
    round_number: int
    view_ts: int
    recs: Tuple[ReconfigRequest, ...]
    echo_signature: Optional[Signature] = None

    def estimated_size(self) -> int:
        return 224 + 128 * len(self.recs)


@dataclass
class BrdReady(Message):
    """Ready vote: the sender saw a quorum of echoes (or f+1 readies)."""

    cluster_id: int
    round_number: int
    view_ts: int
    recs: Tuple[ReconfigRequest, ...]
    ready_signature: Optional[Signature] = None

    def estimated_size(self) -> int:
        return 224 + 128 * len(self.recs)


@dataclass
class BrdQuietDeliver(Message):
    """Quiet-round delivery marker (see ``core/brd.py``).

    When a round's aggregate is provably empty-and-unanimous, replicas send
    their Ready signatures point-to-point to the leader instead of
    broadcasting, and the leader answers with this single marker carrying
    the assembled ``2f+1`` Ready certificate over the empty set — the same
    Σ' remote clusters verify on the full path.
    """

    cluster_id: int
    round_number: int
    view_ts: int
    certificate: Certificate = field(default_factory=lambda: Certificate(""))

    def estimated_size(self) -> int:
        return 224 + 96 * len(self.certificate)

    def verification_cost(self) -> int:
        return max(1, len(self.certificate))


@dataclass
class BrdValid(Message):
    """A replica's stored valid set, forwarded to a new BRD leader."""

    cluster_id: int
    round_number: int
    view_ts: int
    recs: Tuple[ReconfigRequest, ...]
    certificate: Certificate = field(default_factory=lambda: Certificate(""))
    certificate_kind: str = "echo"  # "echo" or "ready"
    valid_ts: int = 0

    def estimated_size(self) -> int:
        return 256 + 128 * len(self.recs) + 96 * len(self.certificate)

    def verification_cost(self) -> int:
        return max(1, len(self.certificate))


#: All payload types handled by the Hamava replica itself (not the engines).
CORE_MESSAGE_TYPES = (
    ClientRequest,
    ClientResponse,
    ClientBatchRequest,
    ClientBatchResponse,
    ReadLeaseGrant,
    Inter,
    LocalShare,
    ShareRequest,
    LComplaint,
    RComplaint,
    ClusterComplaint,
    RequestJoin,
    RequestLeave,
    ReconfigAck,
    CurrState,
    BrdSubmit,
    BrdAgg,
    BrdEcho,
    BrdReady,
    BrdQuietDeliver,
    BrdValid,
)

__all__ = [
    "BrdAgg",
    "BrdEcho",
    "BrdQuietDeliver",
    "BrdReady",
    "BrdSubmit",
    "BrdValid",
    "ClientBatchRequest",
    "ClientBatchResponse",
    "ClientRequest",
    "ClientResponse",
    "ReadLeaseGrant",
    "ClusterComplaint",
    "CORE_MESSAGE_TYPES",
    "CurrState",
    "Inter",
    "LComplaint",
    "LocalShare",
    "RComplaint",
    "ReconfigAck",
    "RequestJoin",
    "RequestLeave",
    "ShareRequest",
]
