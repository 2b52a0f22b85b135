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
        self._rng = rng
        self._zipf = ZipfianGenerator(KEY_SPACE, ZIPF_THETA, rng.child("zipf"))
        self._counter = 0

    def next_operation(self) -> Tuple[str, str, Optional[str]]:
        """Draw the next operation: ``(op, key, value)``."""
        key = f"user{self._zipf.next()}"
        if self._rng.random() < self.config.read_fraction:
            return ("read", key, None)
        self._counter += 1
        value = "x" * max(1, self.value_size // 16)
        return ("write", key, f"{value}-{self._counter}")


__all__ = ["YcsbConfig", "YcsbWorkload"]
