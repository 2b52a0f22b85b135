"""Best-case protocol complexity (paper Table I).

The table compares, for ``z`` clusters of at most ``n`` nodes with ``f``
faults per cluster:

* ``decisions`` — how many values are decided per global exchange,
* local and global best-case message complexity, and
* whether the protocol is decentralized (no single leader site).

The table is the paper's Table I formulas, evaluated.  Nothing here
simulates, and no simulated message count checks them yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class ProtocolComplexity:
    """Complexity entry for one protocol.

    Attributes:
        name: Protocol name as the paper spells it.
        decisions: Decisions per global exchange as a function of z.
        local: Local (intra-cluster) message complexity ``(z, n, f) -> msgs``.
        global_: Global (inter-cluster) message complexity.
        decentralized: Whether no single site coordinates the protocol.
        local_formula: Human-readable formula string.
        global_formula: Human-readable formula string.
    """

    name: str
    decisions: Callable[[int], int]
    local: Callable[[int, int, int], float]
    global_: Callable[[int, int, int], float]
    decentralized: bool
    local_formula: str
    global_formula: str


#: The protocols of Table I, in the paper's order.
PROTOCOLS: List[ProtocolComplexity] = [
    ProtocolComplexity(
        name="Ava-HotStuff",
        decisions=lambda z: z,
        local=lambda z, n, f: 8 * z * n,
        global_=lambda z, n, f: f * z * z,
        decentralized=True,
        local_formula="O(8zn)",
        global_formula="O(f z^2)",
    ),
    ProtocolComplexity(
        name="Ava-BftSmart",
        decisions=lambda z: z,
        local=lambda z, n, f: 2 * z * n * n,
        global_=lambda z, n, f: f * z * z,
        decentralized=True,
        local_formula="O(2zn^2)",
        global_formula="O(f z^2)",
    ),
    ProtocolComplexity(
        name="GeoBFT",
        decisions=lambda z: z,
        local=lambda z, n, f: 4 * n * n * z,
        global_=lambda z, n, f: f * z * z,
        decentralized=True,
        local_formula="O(4n^2)",
        global_formula="O(f z^2)",
    ),
    ProtocolComplexity(
        name="Steward",
        decisions=lambda z: 1,
        local=lambda z, n, f: 2 * z * n * n,
        global_=lambda z, n, f: z * z,
        decentralized=False,
        local_formula="O(2zn^2)",
        global_formula="O(z^2)",
    ),
    ProtocolComplexity(
        name="PBFT",
        decisions=lambda z: 1,
        local=lambda z, n, f: 2 * (z * n) ** 2,
        global_=lambda z, n, f: 0,
        decentralized=False,
        local_formula="O(2(zn)^2)",
        global_formula="-",
    ),
    ProtocolComplexity(
        name="Zyzzyva",
        decisions=lambda z: 1,
        local=lambda z, n, f: z * n,
        global_=lambda z, n, f: 0,
        decentralized=False,
        local_formula="O(zn)",
        global_formula="-",
    ),
]


def protocol(name: str) -> ProtocolComplexity:
    """Look up a Table I protocol by (case-insensitive) name."""
    for entry in PROTOCOLS:
        if entry.name.lower() == name.lower():
            return entry
    raise KeyError(f"unknown protocol {name!r}")


def messages_per_decision(entry: ProtocolComplexity, z: int, n: int, f: Optional[int] = None) -> float:
    """Total best-case messages divided by decisions, for given parameters."""
    faults = f if f is not None else (n - 1) // 3
    total = entry.local(z, n, faults) + entry.global_(z, n, faults)
    return total / max(1, entry.decisions(z))


def complexity_table(z: int, n: int, f: Optional[int] = None) -> List[Dict[str, object]]:
    """Evaluate Table I for concrete parameters.

    Returns one row per protocol with the evaluated message counts alongside
    the symbolic formulas, ready to print or assert against.
    """
    faults = f if f is not None else (n - 1) // 3
    rows: List[Dict[str, object]] = []
    for entry in PROTOCOLS:
        rows.append(
            {
                "protocol": entry.name,
                "decisions": entry.decisions(z),
                "local": entry.local(z, n, faults),
                "global": entry.global_(z, n, faults),
                "local_formula": entry.local_formula,
                "global_formula": entry.global_formula,
                "decentralized": entry.decentralized,
                "messages_per_decision": messages_per_decision(entry, z, n, faults),
            }
        )
    return rows


__all__ = [
    "PROTOCOLS",
    "ProtocolComplexity",
    "complexity_table",
    "messages_per_decision",
    "protocol",
]
