"""Message and envelope types.

Protocol messages are small frozen-ish dataclasses (subclasses of
:class:`Message`).  The network wraps each payload in an :class:`Envelope`
that records the sender, the sender's signature over the payload, and the
size in bytes used by the bandwidth model.

Messages are treated as immutable once handed to the network.  Two things
rest on that contract.  The digest and estimated size are computed lazily
and cached per instance, so re-sending or re-signing the same payload
(retransmits, broadcasts fanned out one link at a time) never recomputes
the full-field ``repr`` walk.  A decided batch
(:class:`repro.core.types.Batch`) keeps the same contract and digests
itself once per process: it is a tuple, and the kilobytes-long ``repr`` walk
behind its 25-character digest runs once, however many replicas vote on the
proposal, sign its commit digest or check it inside a remote bundle.  And
the link layer's envelope signature is not made when the message is sent:
the envelope holds its link's :class:`~repro.net.crypto.LinkSeal`, turns
it into a :class:`~repro.net.crypto.MessageSignature` the first time
something reads :attr:`Envelope.signature`, and that signature holds the
payload and walks it the first time something reads ``signature.digest``
— today only the remote leader change, for the ``LComplaint`` envelopes it
counts into a quorum — so the value read is the send-time value only
because nothing changed the payload in between.  A protocol that keeps an
envelope signature must send a payload it will not touch again.  (One
known aliasing falls short of the contract without breaking anything: the
HotStuff leader keeps adding late votes to a round certificate it has
already broadcast inside ``HsPhase`` / ``ChLock``, the same object.  Nobody keeps those envelopes' signatures;
``tests/test_lazy_signatures.py`` pins both the exception list and the set
of envelope digests a run reads.)
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from hashlib import blake2b
from typing import Any, Dict, Optional, Tuple

from repro.net.crypto import LinkSeal

#: Per-class tuple of dataclass field names, so :meth:`Message.digest` does
#: not re-run the ``dataclasses.fields`` machinery for every new instance.
#: A pure per-class memo of immutable field tuples: the value depends only
#: on the class.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}

#: Per-class compiled digest walkers (see :func:`_compile_digest_fn`).  A
#: pure per-class memo: the compiled walker is a deterministic function of
#: the class.
_DIGEST_FNS: Dict[type, Any] = {}

#: Per-class memo of the unbound ``digest`` method (or ``False``): spares the
#: hot path one ``getattr`` + ``callable`` probe per field value.  Keyed on
#: the class because ``digest`` is a class-level method where it exists
#: (dataclass *fields* named ``digest``, e.g. ``Certificate.digest``, live on
#: instances and correctly resolve to ``False`` here).  A pure per-class
#: memo: it resolves to the same unbound method in every process.
_DIGEST_METHODS: Dict[type, Any] = {}


#: Digest texts up to this many characters stand for themselves.
SHORT_DIGEST = 64


def compact_digest(text: str) -> str:
    """``text`` itself when short, else a fixed-width (25-character) hash of it.

    The ``repr`` of a batch runs to kilobytes, and every replica embeds the
    digests built from it in its vote digests and keeps them per consensus
    instance; the hash keeps what is retained — and copied into every
    enclosing digest — independent of the batch size.  Message sizes are
    estimated from the payload, never from its digest, so simulated
    behaviour does not depend on which form a digest takes.
    """
    if len(text) <= SHORT_DIGEST:
        return text
    return "#" + blake2b(text.encode("utf-8", "surrogatepass"), digest_size=12).hexdigest()


#: Built-in containers: the only digest-less values whose ``repr`` grows with
#: the batch (a transaction's or a signature's is a few hundred characters).
_CONTAINERS = frozenset((list, tuple, dict, set, frozenset))


def payload_digest(value: Any) -> str:
    """Produce a deterministic, hashable digest string for a payload.

    The digest only needs to be collision-resistant *within a simulation*;
    ``repr`` over dataclasses with deterministic field ordering — hashed to
    a fixed width for a long container (a reconfiguration set) — is enough.
    Values that expose a ``digest()`` method (nested messages, operation
    bundles, decided batches) answer from their own per-instance cache
    instead of being re-walked.
    """
    cls = type(value)
    method = _DIGEST_METHODS.get(cls)
    if method is None:
        candidate = getattr(cls, "digest", None)
        method = candidate if callable(candidate) else False
        _DIGEST_METHODS[cls] = method
    if method is not False:
        return method(value)
    text = repr(value)
    return compact_digest(text) if cls in _CONTAINERS else text


def _compile_digest_fn(cls: type, names: Tuple[str, ...]):
    """Build a specialized digest walker for one message class.

    The same code-generation trick ``dataclasses`` uses for ``__init__``:
    a straight-line function with direct attribute loads replaces the
    name-lookup loop, since ``digest`` runs once for every signed message.
    String fields (ids, keys, phase names, embedded digests — the
    majority) are framed as ``s<len>|<content>``: the length marker keeps
    field boundaries unambiguous even though the content may contain the
    ``'|'`` separator (embedded digests always do), and the ``s`` prefix
    separates them from non-string fields, whose ``repr`` never matches
    ``s<digits>``.  Unlike ``repr``-quoting this never copies the
    content, and two distinct messages cannot
    share a digest — and therefore a signature — by boundary aliasing.
    ``int`` fields (cluster ids, rounds, views, sequence numbers — the bulk
    of every protocol message) and ``None`` short-circuit straight to their
    repr, skipping the per-value method-dispatch probe; exact ``int`` keys
    cannot be digest-bearing, so the fast path loses nothing.  Other values
    go through the ``payload_digest`` dispatch (inlined), so nested
    digest-bearing values answer from their caches; a digest-less container
    contributes its plain ``repr`` here (this digest lives and dies with the
    message, unlike the per-replica digests ``payload_digest`` compacts).
    """
    lines = [
        "def compiled(self, _methods, _repr, _getattr, _callable):",
        f"    parts = [{cls.__name__!r}]",
        "    ap = parts.append",
    ]
    for name in names:
        lines += [
            f"    v = self.{name}",
            "    if v.__class__ is str:",
            "        ap('s%d' % len(v))",
            "        ap(v)",
            "    elif v.__class__ is int:",
            "        ap(_repr(v))",
            "    elif v is None:",
            "        ap('None')",
            "    else:",
            "        m = _methods.get(v.__class__)",
            "        if m is None:",
            "            cand = _getattr(v.__class__, 'digest', None)",
            "            m = cand if _callable(cand) else False",
            "            _methods[v.__class__] = m",
            "        ap(m(v) if m is not False else _repr(v))",
        ]
    lines.append("    return '|'.join(parts)")
    namespace: Dict[str, Any] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted, class-derived source
    return namespace["compiled"]


@dataclass
class Message:
    """Base class for every protocol message.

    Subclasses add their own fields.  ``estimated_size`` feeds the bandwidth
    term of the latency model; ``verification_cost`` models the CPU time a
    receiver spends checking signatures carried inside the message.
    """

    def estimated_size(self) -> int:
        """Approximate serialized size in bytes."""
        return 128

    def cached_size(self) -> int:
        """:meth:`estimated_size`, computed once per instance.

        The network calls this on every dispatch; bundles recompute their
        size from nested certificates, so caching it matters on the hot path.
        """
        cache = self.__dict__
        size = cache.get("_size_cache")
        if size is None:
            size = self.estimated_size()
            cache["_size_cache"] = size
        return size

    def verification_cost(self) -> int:
        """Number of signature verifications a receiver performs."""
        return 1

    def digest(self) -> str:
        """Digest of the message contents, used for signing.

        Cached per instance: messages are logically immutable once signed or
        sent, so the first computation (a full-field ``repr`` walk) is also
        the last.  Sending does not trigger it — the envelope signature is
        lazy — so for most messages it never runs.
        """
        cache = self.__dict__
        digest = cache.get("_digest_cache")
        if digest is None:
            cls = type(self)
            fn = _DIGEST_FNS.get(cls)
            if fn is None:
                names = _FIELD_NAMES.get(cls)
                if names is None:
                    names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(self))
                # Field names are constant per class, so only the values go
                # into the digest; the class name plus fixed field order
                # keeps digests of different message types distinct.
                fn = _DIGEST_FNS[cls] = _compile_digest_fn(cls, names)
            digest = cache["_digest_cache"] = fn(
                self, _DIGEST_METHODS, repr, getattr, callable
            )
        return digest


class Envelope:
    """The immutable transport header of one routed message.

    One envelope is allocated per *message*, not per destination: a multicast
    fan-out shares a single header across every copy (the sender, payload,
    signature, send time, size, and precomputed receiver cost are identical
    for all destinations; the destination itself lives in the delivery
    pipeline's per-port schedule, never on the envelope).  This killed the
    largest remaining allocation site after events — the old per-destination
    dataclass init.

    Slots-only with a plain positional constructor (no dataclass machinery):
    envelopes are treated as immutable once handed to the network.  A link
    send passes its :class:`~repro.net.crypto.LinkSeal` as ``signature``;
    :attr:`signature` turns it into the signature on first read and keeps
    that, so every reader of one fan-out shares one object.  Pickling (the
    forked shard workers' mailbox) ships the materialised signature.
    """

    __slots__ = ("sender", "payload", "_signature", "sent_at", "size_bytes", "processing")

    def __init__(
        self,
        sender: str,
        payload: Message,
        signature: Optional[Any] = None,
        sent_at: float = 0.0,
        size_bytes: int = 0,
        processing: float = 0.0,
    ) -> None:
        self.sender = sender
        self.payload = payload
        self._signature = signature
        self.sent_at = sent_at
        self.size_bytes = size_bytes
        #: Receiver-side CPU time, precomputed once per message at dispatch
        #: (it depends only on the payload and the network config).
        self.processing = processing

    @property
    def signature(self) -> Optional[Any]:
        """The sender's signature over the payload (``None`` if unsigned)."""
        signature = self._signature
        if signature.__class__ is LinkSeal:
            signature = self._signature = signature.sign(self.payload)
        return signature

    def __reduce__(self):
        return (
            Envelope,
            (self.sender, self.payload, self.signature, self.sent_at, self.size_bytes, self.processing),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Envelope from={self.sender!r} {type(self.payload).__name__}>"


__all__ = ["Envelope", "Message", "compact_digest", "payload_digest"]
