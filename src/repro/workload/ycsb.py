"""YCSB-style operation generator.

Produces read/write operations over a Zipfian-distributed key space with the
paper's defaults: 85% reads, 15% writes, 1 KB values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import WorkloadError
from repro.sim.rng import SeededRng
from repro.workload.zipf import ZipfianGenerator


@dataclass
class YcsbConfig:
    """Parameters of the YCSB-like workload.

    Attributes:
        read_fraction: Fraction of operations that are reads (paper: 0.85).
        key_space: Number of distinct keys.
        zipf_theta: Zipfian skew (YCSB default 0.99).
        value_size: Bytes per written value (paper: 1 KB operations).
    """

    read_fraction: float = 0.85
    key_space: int = 10_000
    zipf_theta: float = 0.99
    value_size: int = 1024

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on out-of-range parameters."""
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be within [0, 1]")
        if self.key_space <= 0:
            raise WorkloadError("key_space must be positive")
        if self.value_size <= 0:
            raise WorkloadError("value_size must be positive")


class YcsbWorkload:
    """Generates (op, key, value) triples for client threads."""

    def __init__(self, config: YcsbConfig, rng: SeededRng) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        self._zipf = ZipfianGenerator(config.key_space, config.zipf_theta, rng.child("zipf"))
        self._counter = 0

    def next_operation(self) -> Tuple[str, str, Optional[str]]:
        """Draw the next operation: ``(op, key, value)``."""
        key = f"user{self._zipf.next()}"
        if self._rng.random() < self.config.read_fraction:
            return ("read", key, None)
        self._counter += 1
        value = "x" * max(1, self.config.value_size // 16)
        return ("write", key, f"{value}-{self._counter}")


__all__ = ["YcsbConfig", "YcsbWorkload"]
