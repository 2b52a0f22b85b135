"""Core value types: transactions, reconfiguration requests, and bundles.

These are the "operations" of the paper: clients submit *transactions*
(key-value reads and writes) and *reconfigurations* (join/leave).  A leader
cuts the transactions it orders in one round into a :class:`Batch`.  A
round's worth of operations from one cluster travels between clusters as an
:class:`OperationsBundle` together with the certificates that prove the
transactions were ordered by the cluster's consensus and the reconfiguration
set was uniformly disseminated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Optional, Sequence, Tuple

from repro.net.crypto import Certificate, VerdictMemo
from repro.net.message import compact_digest

_txn_counter = itertools.count()

#: Operation kinds a transaction may carry.
READ = "read"
WRITE = "write"


@dataclass(repr=False, unsafe_hash=True)
class Transaction:
    """A client key-value operation.

    Treated as immutable once created (but not ``frozen=True``: one is
    allocated per client operation, and the frozen-dataclass ``__init__``
    pays an ``object.__setattr__`` per field).  ``unsafe_hash`` keeps the
    field-based hash the frozen version provided.

    Attributes:
        txn_id: Globally unique identifier (client id + sequence number).
        client_id: The submitting client.
        origin_replica: Replica the client submitted the request to; that
            replica issues the response when the transaction executes.
        op: ``"read"`` or ``"write"``.
        key: Key operated on.
        value: Value written (``None`` for reads).
        submitted_at: Virtual time the client issued the request.
        size_bytes: Approximate payload size (the paper uses 1 KB operations).
    """

    txn_id: str
    client_id: str
    origin_replica: str
    op: str
    key: str
    value: Optional[str] = None
    submitted_at: float = 0.0
    size_bytes: int = 1024

    @property
    def is_read(self) -> bool:
        """Whether this is a read-only operation."""
        return self.op == READ

    def __repr__(self) -> str:
        # A transaction's repr is the unit every digest walk is built from
        # (client requests, batch digests, bundle digests), so it is
        # computed once per transaction instead of once per enclosing
        # message.  Same shape as the dataclass-generated repr; the field
        # list is derived from the dataclass so it cannot silently drift.
        cached = self.__dict__.get("_repr_cache")
        if cached is None:
            body = ", ".join(
                f"{name}={getattr(self, name)!r}" for name in _TRANSACTION_FIELDS
            )
            cached = self.__dict__["_repr_cache"] = f"Transaction({body})"
        return cached


#: Transaction field names in declaration order, for the cached __repr__.
_TRANSACTION_FIELDS = tuple(f.name for f in dataclass_fields(Transaction))


def make_transaction(
    client_id: str,
    origin_replica: str,
    op: str,
    key: str,
    value: Optional[str] = None,
    submitted_at: float = 0.0,
    size_bytes: int = 1024,
) -> Transaction:
    """Create a transaction with a fresh globally-unique id.

    Built positionally (a keyword call to a dataclass costs about twice as
    much, and this runs once per client operation); the field order is
    pinned by ``tests/test_workload_and_metrics.py``.
    """
    return Transaction(
        f"{client_id}:{next(_txn_counter)}",
        client_id,
        origin_replica,
        op,
        key,
        value,
        submitted_at,
        size_bytes,
    )


class Batch(tuple):
    """The transactions a leader proposes for one round, in order.

    Immutable (a ``tuple``), so the digest every replica needs — to vote on
    the proposal, to sign and check the commit certificate, to check a
    remote cluster's bundle — is computed once per process and kept on the
    instance, as :meth:`repro.net.message.Message.digest` is: the batch
    object is shared by every replica of the simulation.
    """

    _digest: Optional[str] = None

    def digest(self) -> str:
        """The batch's compact digest, walked once per instance."""
        digest = self._digest
        if digest is None:
            digest = self._digest = compact_digest(tuple.__repr__(self))
        return digest


@dataclass(frozen=True, order=True)
class ReconfigRequest:
    """A join or leave request for one process and one cluster.

    The request is the unit the collection/dissemination protocol (Alg. 3/4)
    gathers into per-round sets, so it is frozen and orderable.
    """

    kind: str  # "join" or "leave"
    process_id: str
    cluster_id: int
    region: str = ""

    @property
    def is_join(self) -> bool:
        """Whether this is a join request."""
        return self.kind == "join"

    @property
    def is_leave(self) -> bool:
        """Whether this is a leave request."""
        return self.kind == "leave"


def join_request(process_id: str, cluster_id: int, region: str = "") -> ReconfigRequest:
    """Build a join request."""
    return ReconfigRequest(kind="join", process_id=process_id, cluster_id=cluster_id, region=region)


def leave_request(process_id: str, cluster_id: int) -> ReconfigRequest:
    """Build a leave request."""
    return ReconfigRequest(kind="leave", process_id=process_id, cluster_id=cluster_id)


@dataclass
class OperationsBundle(VerdictMemo):
    """Everything a cluster decided in one round, plus the proofs.

    A bundle is *sealed* once stage 1 constructs it, and treated as
    write-once even though the dataclass is not frozen.  Three memos rely
    on that: its size and digest are computed once per instance, and
    ``GlobalSharing.bundle_valid`` remembers a positive verdict on the
    bundle and on the certificates it covers (:class:`VerdictMemo`), so
    every later receiver with the same view answers without re-checking.
    The transactions are the decided :class:`Batch`, which digests itself
    once; only a certificate may still change after it is sent (the
    HotStuff leader's late votes), and a replaced signer entry clears the
    certificate's verdicts and with them the bundle's.

    Attributes:
        cluster_id: The producing cluster.
        round_number: The round the bundle belongs to.
        transactions: The ordered transaction batch.
        reconfigs: The uniformly disseminated reconfiguration set.
        txn_certificate: ``2f+1`` commit signatures over the batch digest
            (produced by the local ordering engine).
        recs_collection_certificate: BRD's Σ — signatures showing the set was
            collected from a quorum of replicas.
        recs_ready_certificate: BRD's Σ' — ``2f+1`` Ready signatures showing
            every correct replica will deliver the same set.
    """

    cluster_id: int
    round_number: int
    transactions: Sequence[Transaction] = field(default_factory=Batch)
    reconfigs: Tuple[ReconfigRequest, ...] = ()
    txn_certificate: Optional[Certificate] = None
    recs_collection_certificate: Optional[Certificate] = None
    recs_ready_certificate: Optional[Certificate] = None

    def size_bytes(self) -> int:
        """Approximate serialized size of the bundle.

        Cached per instance: a bundle is sealed when stage 1 finishes and is
        then wrapped by one ``Inter`` per remote target plus one
        ``LocalShare`` per receiving replica, each of which used to re-walk
        the transactions and certificates.
        """
        cache = self.__dict__
        size = cache.get("_size_cache")
        if size is None:
            txn_bytes = sum(t.size_bytes for t in self.transactions)
            cert_bytes = 0
            for cert in (
                self.txn_certificate,
                self.recs_collection_certificate,
                self.recs_ready_certificate,
            ):
                if cert is not None:
                    cert_bytes += 96 * len(cert)
            size = 256 + txn_bytes + 128 * len(self.reconfigs) + cert_bytes
            cache["_size_cache"] = size
        return size

    def digest(self) -> str:
        """Deterministic digest of the bundle contents, cached per instance.

        Used by the digests of the ``Inter``/``LocalShare`` messages that
        wrap this bundle, so the certificate/transaction walk happens once
        per bundle rather than once per wrapping message instance.  The
        field list is derived from the dataclass so a future field cannot
        silently fall out of the digest.
        """
        cache = self.__dict__
        digest = cache.get("_digest_cache")
        if digest is None:
            body = ", ".join(
                f"{name}={getattr(self, name)!r}" for name in _BUNDLE_FIELDS
            )
            digest = cache["_digest_cache"] = compact_digest(f"OperationsBundle({body})")
        return digest


#: OperationsBundle field names in declaration order, for the cached digest.
_BUNDLE_FIELDS = tuple(f.name for f in dataclass_fields(OperationsBundle))


__all__ = [
    "Batch",
    "OperationsBundle",
    "READ",
    "ReconfigRequest",
    "Transaction",
    "WRITE",
    "join_request",
    "leave_request",
    "make_transaction",
]
