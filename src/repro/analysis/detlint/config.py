"""Rule scoping: which packages own which invariants.

Scopes are expressed over *module-relative* posix paths: for any file whose
absolute path contains a ``repro`` directory, the path from that directory
on (``repro/net/adversity.py``); otherwise the path as given on the command
line (``tests/test_x.py``).  Keeping the scope map here — instead of inside
each rule — makes the ownership story reviewable in one place and lets the
test suite point rules at fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple


def _default_hot_path_classes() -> Dict[str, FrozenSet[str]]:
    return {
        "repro/sim/events.py": frozenset({"Event", "EventQueue"}),
        "repro/sim/simulator.py": frozenset({"Timer", "DeadlinePool", "PooledTimer"}),
        "repro/net/message.py": frozenset({"Envelope"}),
        "repro/net/crypto.py": frozenset({"Signature", "MessageSignature"}),
        "repro/net/network.py": frozenset({"_Port"}),
        "repro/core/statemachine.py": frozenset({"ExecutionLedger", "LedgerView", "KeyValueStore"}),
    }


@dataclass(frozen=True)
class LintConfig:
    """Scoping knobs shared by every rule.

    Attributes:
        package_root: Prefix of module paths that belong to the simulation
            package; rules never fire outside it (tests and benchmarks are
            scanned, but own none of these invariants directly).
        shard_owned: Packages whose state a deployment owns and a forked
            worker holds its slice of — where iteration order and
            module-level mutation are serial-vs-forked parity hazards
            (DET003/DET004/DET005).
        wallclock_exempt: Packages allowed to read the host clock: the
            harness measures real wall time (``ResultRow.wall_seconds``)
            and the analysis tools are offline (DET001).
        rng_home: The single module allowed to construct raw
            ``random.Random`` streams (DET002).
        rng_exempt: Offline packages exempt from DET002 (analysis tooling).
        hot_path_classes: ``{module: {class, ...}}`` — instance-heavy
            classes that must declare ``__slots__`` (SLOT001).
        message_registry: ``(module, name)`` of the protocol-message
            registry tuple; every ``Message`` subclass defined in that
            module must be listed in it (REG001).
        spec_root_class: Name of the serializable-spec root; every
            dataclass reachable from its field annotations must be
            tagged-dict JSON-serializable (SER001).
    """

    package_root: str = "repro/"
    shard_owned: Tuple[str, ...] = ("repro/core/", "repro/net/", "repro/consensus/", "repro/sim/")
    wallclock_exempt: Tuple[str, ...] = ("repro/harness/", "repro/analysis/")
    rng_home: str = "repro/sim/rng.py"
    rng_exempt: Tuple[str, ...] = ("repro/analysis/",)
    hot_path_classes: Dict[str, FrozenSet[str]] = field(default_factory=_default_hot_path_classes)
    message_registry: Tuple[str, str] = ("repro/core/messages.py", "CORE_MESSAGE_TYPES")
    spec_root_class: str = "ScenarioSpec"

    def in_package(self, module_rel: str) -> bool:
        return module_rel.startswith(self.package_root)

    def is_shard_owned(self, module_rel: str) -> bool:
        return module_rel.startswith(self.shard_owned)


DEFAULT_CONFIG = LintConfig()

__all__ = ["DEFAULT_CONFIG", "LintConfig"]
