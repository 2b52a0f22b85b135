"""YCSB-style operation generator.

Produces read/write operations over a Zipfian-distributed key space with the
paper's defaults: 85% reads, 15% writes, 1 KB values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.types import READ, WRITE
from repro.errors import WorkloadError
from repro.sim.rng import SeededRng
from repro.workload.zipf import ZipfianGenerator


#: Number of distinct keys.
KEY_SPACE = 10_000
#: Zipfian skew (YCSB default).
ZIPF_THETA = 0.99
#: Bytes per written value (paper: 1 KB operations).
VALUE_SIZE = 1024


@dataclass
class YcsbConfig:
    """Parameters of the YCSB-like workload.

    Attributes:
        read_fraction: Fraction of operations that are reads (paper: 0.85).
    """

    read_fraction: float = 0.85

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on out-of-range parameters."""
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be within [0, 1]")


class YcsbWorkload:
    """Generates (op, key, value) triples for client threads.

    ``value_size`` is the size every operation is charged on the wire.
    """

    def __init__(self, config: YcsbConfig, rng: SeededRng) -> None:
        config.validate()
        self.config = config
        self.value_size = VALUE_SIZE
        self._counter = 0
        # Bound once: each is drawn once per client operation.
        self._random = rng.raw_random
        self._next_rank = ZipfianGenerator(KEY_SPACE, ZIPF_THETA, rng.child("zipf")).next
        self._read_fraction = config.read_fraction
        self._value_prefix = "x" * max(1, self.value_size // 16) + "-"

    def next_operation(self) -> Tuple[str, str, Optional[str]]:
        """Draw the next operation: ``(op, key, value)``."""
        key = f"user{self._next_rank()}"
        if self._random() < self._read_fraction:
            return (READ, key, None)
        self._counter += 1
        return (WRITE, key, f"{self._value_prefix}{self._counter}")


__all__ = ["YcsbConfig", "YcsbWorkload"]
