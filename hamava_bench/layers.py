"""Layers of the simulator, and attribution of a profile to them.

A layer is a group of this repository's modules.  ``FILE_LAYER`` assigns
every source file under the six runtime packages to exactly one layer; a new
module is ``unattributed`` (and ``test_bench.py`` fails) until it is listed.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterable, List, Optional, Tuple

#: Packages of ``src/repro`` that run during a simulation.
RUNTIME_PACKAGES = ("sim", "net", "consensus", "core", "workload", "harness")

UNATTRIBUTED = "unattributed"

LAYERS = (
    "sim.kernel",
    "sim.sharded",
    "net.pipeline",
    "net.crypto",
    "consensus",
    "core.brd",
    "core.replica",
    "core.types",
    "workload",
    "harness.metrics",
    "harness.other",
    UNATTRIBUTED,
)

#: Path below ``src/repro`` -> layer.
FILE_LAYER: Dict[str, str] = {
    "sim/__init__.py": "sim.kernel",
    "sim/simulator.py": "sim.kernel",
    "sim/events.py": "sim.kernel",
    "sim/process.py": "sim.kernel",
    "sim/rng.py": "sim.kernel",
    "sim/sharded.py": "sim.sharded",
    "harness/parallel.py": "sim.sharded",
    "net/__init__.py": "net.pipeline",
    "net/network.py": "net.pipeline",
    "net/links.py": "net.pipeline",
    "net/latency.py": "net.pipeline",
    "net/adversity.py": "net.pipeline",
    "net/crypto.py": "net.crypto",
    "net/message.py": "net.crypto",
    "consensus/__init__.py": "consensus",
    "consensus/bftsmart.py": "consensus",
    "consensus/hotstuff.py": "consensus",
    "consensus/hotstuff_chained.py": "consensus",
    "consensus/interface.py": "consensus",
    "consensus/leader_election.py": "consensus",
    "consensus/registry.py": "consensus",
    "core/brd.py": "core.brd",
    "core/__init__.py": "core.replica",
    "core/replica.py": "core.replica",
    "core/statemachine.py": "core.replica",
    "core/remote_leader_change.py": "core.replica",
    "core/reconfiguration.py": "core.replica",
    "core/config.py": "core.replica",
    "core/types.py": "core.types",
    "core/messages.py": "core.types",
    "workload/__init__.py": "workload",
    "workload/clients.py": "workload",
    "workload/population.py": "workload",
    "workload/shapes.py": "workload",
    "workload/ycsb.py": "workload",
    "workload/zipf.py": "workload",
    "harness/metrics.py": "harness.metrics",
    "harness/__init__.py": "harness.other",
    "harness/builder.py": "harness.other",
    "harness/deployment.py": "harness.other",
    "harness/experiments.py": "harness.other",
    "harness/faults.py": "harness.other",
    "harness/runner.py": "harness.other",
    "harness/scenario.py": "harness.other",
}

#: Counters derived from ``NetworkStats.by_type`` (a census of every send by
#: payload class name).  Engine messages are the classes the ``consensus``
#: package defines; the rest live in ``core/messages.py`` and are told apart
#: by the protocol they belong to.
CONSENSUS_PREFIXES = ("Hs", "Ch", "Bs", "Election")
BRD_PREFIX = "Brd"
SHARE_CLASS = "LocalShare"
CLIENT_PREFIX = "Client"

#: ``cProfile`` names some builtins by their address, which differs from one
#: process to the next; functions are visited in the order of their names
#: without it, so that the exact call counts come out the same every time.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def layer_of_file(path: str, package_root: str) -> Optional[str]:
    """Layer of a source file, ``None`` if it is not under ``package_root``."""
    if not path.startswith(package_root + os.sep):
        return None
    relative = os.path.relpath(path, package_root).replace(os.sep, "/")
    return FILE_LAYER.get(relative, UNATTRIBUTED)


def message_counts(by_type: Dict[str, int]) -> Dict[str, int]:
    """Fold the per-class send census into the four per-layer message counts."""
    counts = {"consensus": 0, "core.brd": 0, "core.replica.share": 0, "workload.client": 0}
    for name, count in by_type.items():
        if name.startswith(CONSENSUS_PREFIXES):
            counts["consensus"] += count
        elif name.startswith(BRD_PREFIX):
            counts["core.brd"] += count
        elif name == SHARE_CLASS:
            counts["core.replica.share"] += count
        elif name.startswith(CLIENT_PREFIX):
            counts["workload.client"] += count
    return counts


class _Node:
    """One profiled function: its own cost and who called it."""

    __slots__ = ("label", "calls", "self_s", "callers")

    def __init__(self, code: object) -> None:
        if isinstance(code, str):  # builtins are reported by their repr
            self.label = ("~", 0, _ADDRESS.sub("", code))
        else:
            self.label = (code.co_filename, code.co_firstlineno, code.co_name)
        self.calls = 0
        self.self_s = 0.0
        #: caller's code -> [calls, self time of this function on its behalf]
        self.callers: Dict[object, List[float]] = {}


def attribute(entries: Iterable[object], package_root: str) -> Dict[str, Dict[str, float]]:
    """Bucket a ``cProfile`` result by layer.

    ``entries`` is ``Profile.getstats()``: per code object its call count,
    self time and the functions it called.  (``pstats`` keys functions by
    file, line and name instead, and lets functions that share all three —
    here the digest walkers ``net/message.py`` compiles with ``exec`` —
    overwrite each other, so its counts differ from process to process.)

    A function of this repository belongs to its file's layer.  A builtin,
    standard-library or generated function (heap pushes, hashing, ``dict``
    methods) has no layer of its own: its self time and calls are charged to
    the layers that called it, in proportion to the caller table, through as
    many non-repository frames as it takes.

    Returns ``{layer: {"self_s": ..., "calls": ...}}`` over every layer.
    """
    nodes: Dict[object, _Node] = {}

    def node(code: object) -> _Node:
        found = nodes.get(code)
        if found is None:
            found = nodes[code] = _Node(code)
        return found

    for entry in entries:
        callee = node(entry.code)
        callee.calls += entry.callcount
        callee.self_s += entry.inlinetime
        for call in entry.calls or ():
            edge = node(call.code).callers.setdefault(entry.code, [0, 0.0])
            edge[0] += call.callcount
            edge[1] += call.inlinetime

    def order(code: object):
        return (nodes[code].label, nodes[code].calls)

    memo: Dict[Tuple[object, int], Dict[str, float]] = {}

    def shares(code: object, column: int, stack: frozenset) -> Dict[str, float]:
        """Layer -> fraction of a function; ``column`` 0 weighs by calls, 1 by time."""
        own = layer_of_file(nodes[code].label[0], package_root)
        if own is not None:
            return {own: 1.0}
        if (code, column) in memo:
            return memo[code, column]
        callers = nodes[code].callers
        weights = {caller: edge[column] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:  # too fast for the clock: fall back to call counts
            weights = {caller: edge[0] for caller, edge in callers.items()}
            total = sum(weights.values())
        result: Dict[str, float] = {}
        if total <= 0:
            result[UNATTRIBUTED] = 1.0
        for caller in sorted(weights, key=order):
            fraction = weights[caller] / total if total > 0 else 0.0
            if not fraction:
                continue
            if caller in stack:  # recursion among non-repository frames
                sub = {UNATTRIBUTED: 1.0}
            else:
                sub = shares(caller, column, stack | {code})
            for layer, part in sub.items():
                result[layer] = result.get(layer, 0.0) + fraction * part
        memo[code, column] = result
        return result

    totals = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for code in sorted(nodes, key=order):
        for layer, part in shares(code, 1, frozenset()).items():
            totals[layer]["self_s"] += nodes[code].self_s * part
        for layer, part in shares(code, 0, frozenset()).items():
            totals[layer]["calls"] += nodes[code].calls * part
    return totals


__all__ = [
    "FILE_LAYER",
    "LAYERS",
    "RUNTIME_PACKAGES",
    "UNATTRIBUTED",
    "attribute",
    "layer_of_file",
    "message_counts",
]
