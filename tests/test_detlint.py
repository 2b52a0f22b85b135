"""Tests for the detlint static analyzer (rules, inline suppressions, CLI)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.detlint import Finding, LintReport, lint_paths
from repro.analysis.detlint.config import LintConfig
from repro.analysis.detlint.__main__ import main as detlint_main
from repro.analysis.detlint.engine import module_rel_path
from repro.analysis.detlint.rules import RULES
from repro.net.adversity import RttTrace
from repro.net.latency import LatencyModel, LatencyParameters
from repro.sim.rng import SeededRng, config_rng

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_lint(tmp_path: Path, files: Dict[str, str], config: LintConfig = None) -> LintReport:
    """Write ``files`` (repro-relative paths) under ``tmp_path`` and lint them."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return lint_paths([str(tmp_path)], config=config)


def codes(report: LintReport) -> List[str]:
    return [finding.rule for finding in report.findings]


# ---------------------------------------------------------------------- #
# One positive and one negative fixture per rule
# ---------------------------------------------------------------------- #
class TestDet001WallClock:
    def test_positive_wall_clock_in_core(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/clock.py": """
                import time

                def now() -> float:
                    return time.time()
            """,
        })
        assert codes(report) == ["DET001"]
        assert report.findings[0].context == "now"

    def test_positive_resolves_import_aliases(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/sim/entropy.py": """
                from os import urandom

                def token() -> bytes:
                    return urandom(8)
            """,
        })
        assert codes(report) == ["DET001"]

    def test_negative_harness_may_measure_wall_time(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/harness/measure.py": """
                import time

                def stamp() -> float:
                    return time.time()
            """,
        })
        assert codes(report) == []


class TestDet002RawRandom:
    def test_positive_raw_random_in_net(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/net/noise.py": """
                import random

                def draw(seed: int) -> float:
                    return random.Random(seed).random()
            """,
        })
        assert codes(report) == ["DET002"]

    def test_positive_from_import(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/pick.py": """
                from random import choice
            """,
        })
        assert codes(report) == ["DET002"]

    def test_negative_rng_home_and_config_rng(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/sim/rng.py": """
                import random

                def make(seed: int) -> random.Random:
                    return random.Random(seed)
            """,
            "repro/net/uses.py": """
                from repro.sim.rng import config_rng

                def draw(seed: int) -> float:
                    return config_rng(seed).random()
            """,
        })
        assert codes(report) == []


class TestDet003SetIteration:
    def test_positive_for_loop_over_set(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/iterate.py": """
                def first(items: set):
                    for item in items:
                        return item
            """,
        })
        assert codes(report) == ["DET003"]

    def test_positive_dict_of_sets_and_self_attr(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/net/groups.py": """
                from typing import Dict

                class Index:
                    def __init__(self) -> None:
                        self._members: Dict[int, set] = {}
                        self._dirty = set()

                    def walk(self, group: int):
                        out = [m for m in self._members[group]]
                        for item in self._dirty:
                            out.append(item)
                        return out
            """,
        })
        assert codes(report) == ["DET003", "DET003"]

    def test_negative_sorted_and_order_free_consumers(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/safe.py": """
                def use(items: set):
                    total = sum(x for x in items)
                    low = min(items)
                    for item in sorted(items):
                        total += item
                    return total, low
            """,
        })
        assert codes(report) == []

    def test_negative_outside_shard_owned_packages(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/harness/tooling.py": """
                def first(items: set):
                    for item in items:
                        return item
            """,
        })
        assert codes(report) == []


class TestDet004ModuleState:
    def test_positive_module_cache(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/cache.py": """
                _seen = {}
            """,
        })
        assert codes(report) == ["DET004"]
        assert report.findings[0].context == "_seen"

    def test_negative_constant_tables_and_dunders(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/net/tables.py": """
                RTT_TABLE = {("a", "b"): 1.0}
                __all__ = ["RTT_TABLE"]
            """,
        })
        assert codes(report) == []


class TestDet005IdentityOrdering:
    def test_positive_id_and_hash_in_ordering(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/sim/order.py": """
                def order(items):
                    return sorted(items, key=lambda item: hash(item.name))

                def key_of(item):
                    return id(item)
            """,
        })
        assert sorted(codes(report)) == ["DET005", "DET005"]

    def test_negative_hash_outside_ordering(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/sim/memo.py": """
                def memo_key(item):
                    return hash(item)
            """,
        })
        assert codes(report) == []


class TestSlot001Slots:
    def test_positive_message_subclass_without_slots(self, tmp_path):
        """``Message`` subclasses keep their memos in ``__dict__`` and are not
        checked as such — only when the config lists one as hot-path."""
        files = {
            "repro/core/msg.py": """
                from dataclasses import dataclass

                from repro.net.message import Message

                @dataclass
                class Probe(Message):
                    value: int = 0
            """,
        }
        assert codes(run_lint(tmp_path, files)) == []
        listed = LintConfig(hot_path_classes={"repro/core/msg.py": frozenset({"Probe"})})
        report = run_lint(tmp_path, files, config=listed)
        assert codes(report) == ["SLOT001"]
        assert report.findings[0].context == "Probe"

    def test_positive_configured_hot_path_class(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/sim/events.py": """
                class EventQueue:
                    def __init__(self) -> None:
                        self._heap = []
            """,
        })
        assert codes(report) == ["SLOT001"]

    def test_negative_with_slots(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/sim/events.py": """
                class EventQueue:
                    __slots__ = ("_heap",)

                    def __init__(self) -> None:
                        self._heap = []
            """,
        })
        assert codes(report) == []


class TestReg001MessageContract:
    def test_positive_unregistered_plain_class_without_cost(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/messages.py": """
                from dataclasses import dataclass
                from typing import Tuple

                from repro.net.crypto import Certificate, Signature
                from repro.net.message import Message

                class Bare(Message):
                    pass

                @dataclass
                class Quorum(Message):
                    __slots__ = ()
                    certificate: Tuple[Signature, ...] = ()

                CORE_MESSAGE_TYPES = (Quorum,)
            """,
        })
        reg = [f for f in report.findings if f.rule == "REG001"]
        # Bare: not a dataclass + unregistered; Quorum: no verification_cost.
        assert len(reg) == 3
        assert {f.context for f in reg} == {"Bare", "Quorum"}

    def test_negative_conforming_message(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/messages.py": """
                from dataclasses import dataclass

                from repro.net.crypto import Certificate
                from repro.net.message import Message

                @dataclass
                class Sealed(Message):
                    __slots__ = ()
                    certificate: Certificate = None

                    def verification_cost(self) -> int:
                        return len(self.certificate)

                CORE_MESSAGE_TYPES = (Sealed,)
            """,
        })
        assert codes(report) == []


class TestSer001SpecSerialization:
    def test_positive_unserializable_reachable_field(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/harness/spec.py": """
                from dataclasses import dataclass, field
                from typing import List

                class Opaque:
                    pass

                @dataclass
                class Nested:
                    handle: Opaque = None

                @dataclass
                class ScenarioSpec:
                    name: str = "s"
                    nested: List[Nested] = field(default_factory=list)
            """,
        })
        assert codes(report) == ["SER001"]
        assert report.findings[0].context == "Nested.handle"

    def test_negative_equipped_and_plain_safe_classes(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/harness/spec.py": """
                from dataclasses import dataclass, field
                from typing import Dict, List, Optional, Tuple

                class Opaque:
                    pass

                @dataclass
                class Equipped:
                    handle: Opaque = None

                    def to_dict(self) -> Dict[str, object]:
                        return {}

                    @classmethod
                    def from_dict(cls, payload: Dict[str, object]) -> "Equipped":
                        return cls()

                @dataclass
                class Plain:
                    label: str = ""
                    weights: Tuple[float, ...] = ()

                @dataclass
                class ScenarioSpec:
                    name: str = "s"
                    plain: Optional[Plain] = None
                    equipped: Equipped = None
                    labels: Dict[str, object] = field(default_factory=dict)
            """,
        })
        assert codes(report) == []

    def test_positive_module_function_serializers_detected(self, tmp_path):
        # A class equipped via population_to_dict-style module functions is
        # trusted even when its fields are not plainly JSON-safe.
        report = run_lint(tmp_path, {
            "repro/harness/spec.py": """
                from dataclasses import dataclass
                from typing import Callable, Dict, Optional

                @dataclass
                class Shape:
                    fn: Callable = None

                def shape_to_dict(shape: Shape) -> Dict[str, object]:
                    return {}

                def shape_from_dict(payload: Dict[str, object]) -> Shape:
                    return Shape()

                @dataclass
                class ScenarioSpec:
                    shape: Optional[Shape] = None
            """,
        })
        assert codes(report) == []


# ---------------------------------------------------------------------- #
# The one sanctioning mechanism: inline suppressions
# ---------------------------------------------------------------------- #
class TestSuppressions:
    def test_inline_disable_with_rationale(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/cache.py": """
                _memo = {}  # detlint: disable=DET004 -- pure memo of derived values
            """,
        })
        assert codes(report) == []
        assert report.suppressed == 1

    def test_disable_must_name_the_rule(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/cache.py": """
                _memo = {}  # detlint: disable=DET001 -- wrong code
            """,
        })
        assert codes(report) == ["DET004"]

    def test_file_wide_disable(self, tmp_path):
        report = run_lint(tmp_path, {
            "repro/core/legacy.py": """
                # detlint: disable-file=DET004 -- legacy module, tracked in #123
                _a = {}
                _b = []
            """,
        })
        assert codes(report) == []
        assert report.suppressed == 2


class TestShippedTreeAndRatchet:
    def test_shipped_tree_is_clean(self):
        report = lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.errors == []

    def test_rule_registry_is_complete(self):
        assert set(RULES) == {
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "SLOT001", "REG001", "SER001",
        }


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def _write(self, tmp_path: Path, rel: str, source: str) -> None:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))

    def test_exit_zero_on_clean_tree(self, tmp_path):
        self._write(tmp_path, "repro/core/ok.py", "VALUE = 1\n")
        assert detlint_main([str(tmp_path)]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self._write(tmp_path, "repro/core/bad.py", "import time\nT = time.time()\n")
        assert detlint_main([str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_exit_two_on_parse_error(self, tmp_path):
        self._write(tmp_path, "repro/core/broken.py", "def oops(:\n")
        assert detlint_main([str(tmp_path)]) == 2

    def test_stats_output(self, tmp_path):
        self._write(tmp_path, "repro/core/bad.py", "_cache = {}\n")
        stats = tmp_path / "stats.json"
        detlint_main([str(tmp_path), "--stats", str(stats)])
        payload = json.loads(stats.read_text())
        assert payload["actionable"] == 1
        assert payload["by_rule"] == {"DET004": 1}

    def test_json_output(self, tmp_path, capsys):
        self._write(tmp_path, "repro/core/bad.py", "_cache = {}\n")
        detlint_main([str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "DET004"
        assert payload[0]["path"] == "repro/core/bad.py"


class TestModuleRelPath:
    def test_rightmost_repro_component_wins(self):
        assert module_rel_path("/a/src/repro/net/x.py") == "repro/net/x.py"
        assert module_rel_path("/tmp/fix/repro/core/repro/sim/y.py") == "repro/sim/y.py"

    def test_paths_without_repro_stay_as_given(self):
        assert module_rel_path("tests/test_x.py") == "tests/test_x.py"


# ---------------------------------------------------------------------- #
# Satellite regressions: the fixes detlint forced
# ---------------------------------------------------------------------- #
class TestAdversityRngMigration:
    # Pinned from the pre-migration generator (bare random.Random(seed)):
    # config_rng(seed) must replay these traces byte-for-byte.
    GOLDEN = {
        ("asia-south1", "us-west1"): [
            (0.0, 230.0), (2.0, 186.737), (4.0, 221.645), (6.0, 234.528),
            (8.0, 569.539), (10.0, 460.0), (12.0, 378.179),
        ],
        ("europe-west3", "us-west1"): [
            (0.0, 148.0), (2.0, 134.964), (4.0, 318.338), (6.0, 237.352),
            (8.0, 150.095), (10.0, 114.58), (12.0, 232.339),
        ],
    }

    def test_synthetic_trace_bytes_unchanged(self):
        trace = RttTrace.synthetic(
            pairs=[("us-west1", "europe-west3", 148.0), ("us-west1", "asia-south1", 230.0)],
            duration=10.0,
            seed=7,
            step=2.0,
        )
        assert trace.segments == self.GOLDEN

    def test_config_rng_matches_plain_seeding(self):
        import random

        ours = config_rng(123)
        reference = random.Random(123)
        assert [ours.random() for _ in range(5)] == [reference.random() for _ in range(5)]


class TestCrossGroupPairOrdering:
    def test_pairs_are_sorted_and_deterministic(self):
        model = LatencyModel(SeededRng(3), LatencyParameters(jitter_fraction=0.0))
        model.place("p1", "us-west1")
        model.place("p2", "europe-west3")
        model.place("p3", "asia-south1")
        model.place("p4", "us-east1")
        groups = {"p1": 0, "p2": 0, "p3": 1, "p4": 1}
        pairs = model._cross_group_region_pairs(groups)
        assert pairs == [
            ("europe-west3", "asia-south1"),
            ("europe-west3", "us-east1"),
            ("us-west1", "asia-south1"),
            ("us-west1", "us-east1"),
        ]
        assert pairs == model._cross_group_region_pairs(dict(reversed(groups.items())))
