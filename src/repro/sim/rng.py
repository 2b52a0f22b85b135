"""Seeded random-number utilities.

Every stochastic component (latency jitter, Zipfian key choice, client think
times) draws from a :class:`SeededRng` namespace derived from a single
scenario seed.  Namespacing keeps one component's draws from perturbing
another's, so adding a client does not change the latency samples of an
existing link.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable


def _derive_seed(root_seed: int, namespace: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a namespace string."""
    digest = hashlib.sha256(f"{root_seed}:{namespace}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng:
    """A namespaced wrapper around :class:`random.Random`.

    Args:
        seed: Root scenario seed.
        namespace: Label identifying the component that owns this stream.
    """

    def __init__(self, seed: int, namespace: str = "root") -> None:
        self.seed = seed
        self.namespace = namespace
        self._random = random.Random(_derive_seed(seed, namespace))

    def child(self, namespace: str) -> "SeededRng":
        """Return an independent stream for a sub-component."""
        return SeededRng(self.seed, f"{self.namespace}/{namespace}")

    @property
    def raw_random(self) -> "Callable[[], float]":
        """The underlying C-implemented uniform ``[0, 1)`` draw.

        Hot paths bind this once and call it directly, skipping the wrapper
        frame per draw; it consumes the same stream as :meth:`random`.
        """
        return self._random.random

    def random(self) -> float:
        """Draw a float uniformly from ``[0, 1)``."""
        return self._random.random()

    def gauss(self, mu: float, sigma: float) -> float:
        """Draw from a normal distribution (mean ``mu``, stddev ``sigma``)."""
        return self._random.gauss(mu, sigma)


def config_rng(seed: int) -> random.Random:
    """A plain seeded generator for configuration-time data synthesis.

    Some inputs are *synthesized before the simulation exists* — e.g.
    :meth:`RttTrace.synthetic` builds a latency trace that is then frozen
    into the scenario spec.  Those sites need a reproducible stream but
    have no kernel and no component namespace, so a :class:`SeededRng`
    would be ceremony without protection.  They still
    must not scatter ``random.Random(seed)`` constructions around the
    tree: this factory is the single sanctioned way to obtain a raw
    generator outside this module, which keeps every stream-construction
    site in one reviewed file.  Review enforces that; a draw from the
    unseeded global ``random`` module fails the determinism gate
    (``tests/test_determinism_gate.py``), whose two fresh processes then
    disagree.

    The returned generator is seeded with ``seed`` directly (no namespace
    derivation), so migrating a call site from ``random.Random(seed)`` to
    ``config_rng(seed)`` is byte-identical.
    """
    return random.Random(seed)


def stable_hash(items: Iterable[str]) -> int:
    """Hash an iterable of strings to a stable 64-bit integer.

    Used to derive deterministic per-replica seeds from replica identifiers.
    """
    digest = hashlib.sha256("|".join(items).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


__all__ = ["SeededRng", "config_rng", "stable_hash"]
