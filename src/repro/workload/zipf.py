"""Zipfian key chooser used by the YCSB workload.

Key popularity follows a Zipfian distribution with exponent ``theta``
(YCSB's default is 0.99) over a finite key space.  Two structures are built
once per ``(item_count, theta)`` per process and shared by every generator
over that key space (every closed-loop client and every open-loop
population draws from one copy).  They are packed ``array('d')`` /
``array('l')`` buffers — 8 bytes per entry instead of a pointer plus a
boxed float or int — handed out as read-only ``memoryview`` objects, so no
generator can write to the copy the others draw from:

* the CDF, which backs :meth:`ZipfianGenerator.probability` (and the
  chi-squared agreement test between the two structures), and
* a Walker/Vose *alias table*, which makes :meth:`ZipfianGenerator.next`
  O(1): one uniform draw selects a column and the fractional part decides
  between the column and its alias.

A generator owns only its RNG stream.  A draw consumes exactly one uniform
from that stream (as the old binary-search implementation did), so sibling
RNG streams — and therefore whole-simulation determinism — are unaffected by
the table.  The *mapping* from uniform to key differs from CDF inversion,
but key identity never feeds timing or sizes, only store contents.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.sim.rng import SeededRng

#: Read-only ``(cdf, prob, alias)`` views per ``(item_count, theta)``, built on first use.
_TABLES: Dict[Tuple[int, float], Tuple[memoryview, memoryview, memoryview]] = {}


def _build_cdf(item_count: int, theta: float) -> List[float]:
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(item_count)]
    total = sum(weights)
    cdf: List[float] = []
    cumulative = 0.0
    for weight in weights:
        cumulative += weight / total
        cdf.append(cumulative)
    cdf[-1] = 1.0
    return cdf


def _build_alias(cdf: List[float]) -> Tuple[List[float], List[int]]:
    """Walker/Vose alias table over the same per-rank probabilities.

    Column ``i`` keeps its own mass with probability ``prob[i]`` and
    donates the rest of the column to ``alias[i]``; a draw is then one
    uniform split into (column, fraction).
    """
    n = len(cdf)
    # Per-rank probability scaled by n, derived from the CDF so the two
    # structures agree exactly on each rank's mass.
    scaled: List[float] = []
    previous = 0.0
    for value in cdf:
        scaled.append((value - previous) * n)
        previous = value
    prob = [1.0] * n
    alias = list(range(n))
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        lean = small.pop()
        rich = large.pop()
        prob[lean] = scaled[lean]
        alias[lean] = rich
        scaled[rich] = (scaled[rich] + scaled[lean]) - 1.0
        if scaled[rich] < 1.0:
            small.append(rich)
        else:
            large.append(rich)
    # Whatever remains (numerical leftovers) keeps its full column.
    return prob, alias


def _packed(typecode: str, values: List) -> memoryview:
    return memoryview(array(typecode, values)).toreadonly()


def _tables(item_count: int, theta: float):
    key = (item_count, theta)
    tables = _TABLES.get(key)
    if tables is None:
        cdf = _build_cdf(item_count, theta)
        prob, alias = _build_alias(cdf)
        tables = _TABLES[key] = (_packed("d", cdf), _packed("d", prob), _packed("l", alias))
    return tables


class ZipfianGenerator:
    """Draws integers in ``[0, item_count)`` with Zipfian popularity.

    Args:
        item_count: Size of the key space.
        theta: Skew exponent; 0 is uniform, YCSB uses 0.99 by default.
        rng: Seeded random stream.
    """

    def __init__(self, item_count: int, theta: float, rng: SeededRng) -> None:
        if item_count <= 0:
            raise WorkloadError("item_count must be positive")
        if theta < 0:
            raise WorkloadError("theta must be non-negative")
        self.item_count = item_count
        self.theta = theta
        self._rng = rng
        self._random = rng.raw_random
        self._cdf, self._prob, self._alias = _tables(item_count, theta)

    def next(self) -> int:
        """Draw the next item index (O(1): one uniform, one table probe)."""
        scaled = self._random() * self.item_count
        index = int(scaled)
        if scaled - index < self._prob[index]:
            return index
        return self._alias[index]

    def probability(self, rank: int) -> float:
        """The probability of drawing the item at ``rank`` (0-based)."""
        if rank < 0 or rank >= self.item_count:
            raise WorkloadError(f"rank {rank} outside the key space")
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - previous


__all__ = ["ZipfianGenerator"]
