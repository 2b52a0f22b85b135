"""Simulated signatures and quorum certificates.

The paper assumes replicas are identified by public keys and cannot forge
each other's signatures.  Inside a single-process simulation we do not need
real elliptic-curve cryptography; we need *unforgeability by the code paths
that model Byzantine behaviour*.  A signature here is a token binding
``(signer, digest)`` to a per-signer secret kept in a registry.  Honest code
only creates signatures through :meth:`KeyRegistry.sign`, and verification
recomputes the token, so a Byzantine component cannot fabricate a signature
for a replica whose secret it does not hold (the registry only hands out a
replica's signing capability to that replica's own process).

Two entry points mint signatures.  :meth:`KeyRegistry.sign` signs a digest
the caller already holds — votes, BRD entries, commit signatures, where the
digest *is* the thing signed — and returns a plain :class:`Signature` whose
``digest`` is a slot.  :meth:`KeyRegistry.sign_message` is the link layer's:
it signs a whole :class:`~repro.net.message.Message` and returns a
:class:`MessageSignature` that walks the payload's digest only when
something reads it.  Almost nothing does — the link check answers from the
``verified_by`` memo, and the one protocol that keeps envelope signatures
(the remote leader change's ``LComplaint`` quorum) reads a few dozen per
run — so an honest send costs one slotted allocation and no digest walk.
The registry counts all three (:meth:`KeyRegistry.counters`).

The real CPU cost of signing/verification is modelled separately by the
network's processing-cost parameters so that message-complexity differences
between protocols remain visible in simulated throughput.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set

from repro.errors import CryptoError

if TYPE_CHECKING:
    from repro.net.message import Message


#: Token memo entry cap: keys are (signer, digest_hash) with small values,
#: so a simple entry bound replaces the old byte-based accounting.
_TOKEN_CACHE_MAX_ENTRIES = 1 << 20

#: Sentinel marking a registry-minted signature whose token has not been
#: derived yet (see :class:`Signature` — most tokens are never read).
_LAZY = object()


def _token(proto: "hashlib._Hash", digest_hash: int) -> int:
    """Keyed token binding a signer's secret to a message digest.

    A keyed blake2b over the *string hash* of the digest (not its bytes):
    CPython caches a string's hash on the string object, and signature
    objects carry a reference to the exact digest string they were created
    from, so the expensive part of tokenising even a kilobytes-long bundle
    digest is paid once per digest string, while the MAC itself runs over 8
    bytes.  Keying with the signer's secret keeps the original
    unforgeability contract: a token does not reveal anything a Byzantine
    component could use to mint tokens for other digests (unlike a plain
    ``hash ^ secret`` mix, which is invertible).

    ``proto`` is the signer's precomputed keyed hasher prototype: ``copy()``
    of a keyed blake2b skips the key schedule, which dominates an 8-byte
    MAC (most signs are cache misses — vote digests are unique — so this
    runs once per signature in a simulation).
    """
    mac = proto.copy()
    mac.update(digest_hash.to_bytes(8, "little", signed=True))
    return int.from_bytes(mac.digest(), "little")


class Signature:
    """A signature by ``signer`` over ``digest``.

    ``token`` is an integer for registry-produced signatures and a marker
    string for forged ones (so a forgery can never compare equal).  A plain
    slotted class rather than a frozen dataclass: one is allocated per
    signed message, and the frozen-dataclass ``__init__`` (one
    ``object.__setattr__`` per field) is several times slower.

    ``verified_by`` memoises a *positive* verification verdict on the object
    itself — it holds the registry that minted or first verified the
    signature.  Signatures travel the simulation by reference, never by
    serialization, so a registry-minted signature answers every later
    :meth:`KeyRegistry.verify` from the same registry with one identity
    check instead of re-deriving the token.  Scoping the memo to the
    registry keeps cross-trust-domain checks honest (a second registry whose
    secrets never produced the signature still runs the full check).  This
    preserves the unforgeability contract for the code paths that model
    Byzantine behaviour: forgeries are created through
    :meth:`KeyRegistry.forge`, which leaves the memo unset, and a
    fabricated ``Signature`` cannot carry a matching token anyway.  (A
    component that sets ``verified_by`` by hand is outside the model,
    exactly like one reading another replica's secret.)

    Tokens are derived *lazily*: in an honest run a registry-minted
    signature is verified via the ``verified_by`` memo and its token is
    never read, so :meth:`KeyRegistry.sign` skips the MAC entirely and the
    token materialises only when something actually compares it (a
    cross-registry check, a certificate replacing a signer's entry, a
    ``repr``).  The derivation goes through the minting registry, so the
    value is identical to an eagerly computed token.
    """

    __slots__ = ("signer", "digest", "_token", "verified_by")

    def __init__(
        self, signer: str, digest: str, token: object, verified_by: object = None
    ) -> None:
        self.signer = signer
        self.digest = digest
        self._token = token
        self.verified_by = verified_by

    @property
    def token(self) -> object:
        token = self._token
        if token is _LAZY:
            token = self._token = self.verified_by._derive_token(self.signer, self.digest)
        return token

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.signer == other.signer
            and self.digest == other.digest
            and self.token == other.token
        )

    def __hash__(self) -> int:
        return hash((self.signer, self.digest, self.token))

    def __repr__(self) -> str:
        return f"Sig({self.signer},{self.token})"

    def __getstate__(self):
        # Cross-process shipping (multiprocess shard workers): materialise a
        # lazy token — the module-level ``_LAZY`` sentinel would lose its
        # identity across pickling — and drop the ``verified_by`` memo,
        # whose registry holds unpicklable keyed-hasher prototypes.  The
        # receiving worker's registry is a deterministic twin (secrets are
        # derived from ``(seed, process_id)``), so verification over there
        # re-derives the identical token and re-memoises.
        return (self.signer, self.digest, self.token)

    def __setstate__(self, state) -> None:
        self.signer, self.digest, self._token = state
        self.verified_by = None


class MessageSignature(Signature):
    """The link layer's signature over a whole message, lazy in its digest.

    Minted only by :meth:`KeyRegistry.sign_message`.  It holds the signed
    ``payload`` instead of its digest: ``digest`` walks ``payload.digest()``
    on first read and keeps the result, and ``token`` derives from that as
    for any registry-minted signature, so equality, hashing, ``repr``,
    :meth:`KeyRegistry.verify` and :meth:`Certificate.add` all behave as
    they do for ``registry.sign(signer, payload.digest())`` — which this
    compares equal to.  The value read later is the value an eager walk at
    send time would have produced because messages are immutable once
    handed to the network (see :mod:`repro.net.message`).

    The first read is counted on the minting registry, by payload type
    (``envelope_digests_read``): the count of digest walks the link layer
    still causes is a deterministic work counter, and
    ``tests/test_lazy_signatures.py::TestEnvelopeDigestReads`` gates on it.  Pickling (the forked shard workers' pipes) materialises digest
    and token and ships a plain :class:`Signature`.
    """

    __slots__ = ("payload", "_digest")

    @property
    def digest(self) -> str:
        try:
            return self._digest
        except AttributeError:
            pass
        # ``verified_by`` still names the minting registry here: only a
        # token comparison can replace it, and that reads the digest first.
        reads = self.verified_by.envelope_digests_read
        name = type(self.payload).__name__
        reads[name] = reads.get(name, 0) + 1
        digest = self._digest = self.payload.digest()
        return digest

    def __reduce__(self):
        return (Signature, (self.signer, self.digest, self.token))


@dataclass
class Certificate:
    """A set of signatures over one digest (a quorum certificate).

    Attributes:
        digest: The signed message digest.
        signatures: Signatures collected so far, keyed by signer.
        kind: Free-form label ("commit", "echo", "ready", "recs", ...) so the
            same container serves consensus QCs and BRD certificates.
    """

    digest: str
    kind: str = "commit"
    signatures: Dict[str, Signature] = field(default_factory=dict)

    def add(self, signature: Signature) -> None:
        """Add a signature; signatures over a different digest are rejected."""
        if signature.digest != self.digest:
            raise CryptoError(
                f"signature digest {signature.digest!r} does not match certificate "
                f"digest {self.digest!r}"
            )
        existing = self.signatures.get(signature.signer)
        if existing is not None and existing != signature:
            # Replacing a signer's entry can turn a once-valid certificate
            # invalid (e.g. a forged replacement), so the positive-validation
            # memo must not survive the swap.
            self.__dict__.pop("_valid_cache", None)
        self.signatures[signature.signer] = signature

    def signers(self) -> Set[str]:
        """The set of replica ids that have signed."""
        return set(self.signatures)

    def __len__(self) -> int:
        return len(self.signatures)

    def merge(self, other: "Certificate") -> None:
        """Union another certificate's signatures into this one."""
        for signature in other.signatures.values():
            self.add(signature)

    def copy(self) -> "Certificate":
        """Shallow copy (signatures are immutable)."""
        return Certificate(self.digest, self.kind, dict(self.signatures))

    def __getstate__(self):
        # The positive-validation memo is keyed by registry identity, which
        # does not survive a process boundary; drop it so the receiving
        # shard worker re-validates against its own registry twin.
        state = dict(self.__dict__)
        state.pop("_valid_cache", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)


class KeyRegistry:
    """Key material and verification for every process in a scenario.

    One registry is shared by a whole simulation.  It also exposes helpers
    used throughout the protocols: quorum checks against a *specific* cluster
    membership (the heterogeneous part of Hamava: a certificate from cluster
    ``j`` must carry ``2 f_j + 1`` signatures *from members of C_j*).
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._secrets: Dict[str, str] = {}
        # Per-signer keyed-hasher prototypes, precomputed at registration
        # (copying a keyed blake2b skips the key schedule on every token).
        self._secret_keys: Dict[str, "hashlib._Hash"] = {}
        # Memo of correct tokens, nested signer -> digest string hash ->
        # token (nested so the per-call lookup allocates no key tuple).
        # Secrets are write-once, so entries never go stale; signing fills
        # it, so verifying an honestly-signed multicast at n destinations
        # costs one MAC total instead of n + 1.
        self._token_cache: Dict[str, Dict[int, int]] = {}
        # Deterministic work counters (see :meth:`counters`).
        self.signatures_minted = 0
        self.envelope_signatures = 0
        #: Envelope-signature digests materialised, by payload type name.
        self.envelope_digests_read: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Key management
    # ------------------------------------------------------------------ #
    def register(self, process_id: str) -> None:
        """Create key material for a process (idempotent)."""
        if process_id not in self._secrets:
            secret = hashlib.sha256(
                f"{self._seed}:{process_id}".encode("utf-8")
            ).hexdigest()
            self._secrets[process_id] = secret
            self._secret_keys[process_id] = hashlib.blake2b(
                key=secret.encode("utf-8")[:64], digest_size=8
            )

    def knows(self, process_id: str) -> bool:
        """Whether the process has registered keys."""
        return process_id in self._secrets

    # ------------------------------------------------------------------ #
    # Signing and verification
    # ------------------------------------------------------------------ #
    def sign(self, signer: str, digest: str) -> Signature:
        """Sign ``digest`` on behalf of ``signer``.

        Allocation-only on the hot path: the signature is born with the
        ``verified_by`` memo set and a lazy token (see :class:`Signature`),
        so signing costs one slotted object and the MAC is deferred until —
        usually never — something reads the token.
        """
        if signer not in self._secret_keys:
            raise CryptoError(f"unknown signer {signer!r}")
        self.signatures_minted += 1
        signature = Signature.__new__(Signature)
        signature.signer = signer
        signature.digest = digest
        signature._token = _LAZY
        signature.verified_by = self
        return signature

    def sign_message(self, signer: str, payload: "Message") -> MessageSignature:
        """Sign a whole message on behalf of ``signer`` (the link layer).

        Equal to ``sign(signer, payload.digest())`` but does not walk the
        payload: the returned :class:`MessageSignature` derives the digest
        when — usually never — something reads it.
        """
        if signer not in self._secret_keys:
            raise CryptoError(f"unknown signer {signer!r}")
        self.envelope_signatures += 1
        signature = MessageSignature.__new__(MessageSignature)
        signature.signer = signer
        signature.payload = payload
        signature._token = _LAZY
        signature.verified_by = self
        return signature

    def counters(self) -> Dict[str, int]:
        """Deterministic per-run work counters of the crypto layer.

        ``signatures_minted`` counts explicit :meth:`sign` calls,
        ``envelope_signatures`` the link layer's :meth:`sign_message`
        calls, ``envelope_digests_read`` how many of the latter ever had
        their payload digest walked.  Kept off ``NetworkStats.snapshot()``,
        which is inside the pinned determinism fingerprints.
        """
        return {
            "signatures_minted": self.signatures_minted,
            "envelope_signatures": self.envelope_signatures,
            "envelope_digests_read": sum(self.envelope_digests_read.values()),
        }

    def _derive_token(self, signer: str, digest: str) -> int:
        """Compute (and memoise) the token for a signer/digest pair."""
        proto = self._secret_keys.get(signer)
        if proto is None:
            raise CryptoError(f"unknown signer {signer!r}")
        by_signer = self._token_cache.get(signer)
        if by_signer is None:
            by_signer = self._token_cache[signer] = {}
        digest_hash = hash(digest)
        token = by_signer.get(digest_hash)
        if token is None:
            if len(by_signer) >= _TOKEN_CACHE_MAX_ENTRIES:
                by_signer.clear()
            token = by_signer[digest_hash] = _token(proto, digest_hash)
        return token

    def verify(self, signature: Signature) -> bool:
        """Check that a signature was produced with the signer's secret.

        Signatures minted by — or previously verified against — *this*
        registry answer from the ``verified_by`` memo (see
        :class:`Signature`); only first-time or forged signatures derive
        and compare the token.
        """
        if signature.verified_by is self:
            return True
        if signature.signer not in self._secret_keys:
            return False
        if signature.token == self._derive_token(signature.signer, signature.digest):
            signature.verified_by = self
            return True
        return False

    def forge(self, signer: str, digest: str) -> Signature:
        """Produce an *invalid* signature claiming to be from ``signer``.

        Byzantine behaviours use this to attempt forgeries; verification will
        reject it.  Provided so attack tests never touch real secrets.
        """
        return Signature(signer=signer, digest=digest, token="forged-" + digest[:16])

    # ------------------------------------------------------------------ #
    # Certificates
    # ------------------------------------------------------------------ #
    def new_certificate(self, digest: str, kind: str = "commit") -> Certificate:
        """Create an empty certificate for a digest."""
        return Certificate(digest=digest, kind=kind)

    def certificate_valid(
        self,
        certificate: Optional[Certificate],
        members: Iterable[str],
        threshold: int,
        digest: Optional[str] = None,
    ) -> bool:
        """Validate a certificate against a membership and threshold.

        Args:
            certificate: The certificate to check (``None`` fails).
            members: The membership the signatures must come from.
            threshold: Minimum number of valid member signatures required.
            digest: If given, the certificate must cover exactly this digest.

        Returns:
            ``True`` when at least ``threshold`` signatures are valid, were
            produced by distinct members of ``members``, and cover the
            expected digest.
        """
        if certificate is None:
            return False
        if digest is not None and certificate.digest != digest:
            return False
        # Positive results are memoised on the certificate object itself: the
        # same certificate instance is re-validated by every receiving
        # replica (phase broadcasts, bundle shares), and signatures are only
        # ever *added* (replacement invalidates the memo in Certificate.add),
        # so a satisfied (registry, digest, threshold, membership) check can
        # never become unsatisfied.  The registry is part of the key: a
        # certificate may be checked against a second trust domain whose
        # secrets never produced the signatures.  Negative results are
        # recomputed.
        key = (self, certificate.digest, threshold, tuple(members))
        cache = certificate.__dict__.get("_valid_cache")
        if cache is not None and key in cache:
            return True
        member_set = set(key[3])
        valid = 0
        for signature in certificate.signatures.values():
            if signature.signer not in member_set:
                continue
            if signature.digest != certificate.digest:
                continue
            if not self.verify(signature):
                continue
            valid += 1
        if valid >= threshold:
            if cache is None:
                cache = certificate.__dict__["_valid_cache"] = set()
            cache.add(key)
            return True
        return False


__all__ = ["Certificate", "KeyRegistry", "MessageSignature", "Signature"]
