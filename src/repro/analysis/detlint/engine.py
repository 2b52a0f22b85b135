"""The lint driver: collect files, run rules, apply inline suppressions."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.detlint.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.detlint.findings import Finding
from repro.analysis.detlint.rules import all_rules
from repro.analysis.detlint.rules.base import ModuleFile, Project
from repro.analysis.detlint.suppressions import SuppressionIndex


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``findings`` are the *actionable* ones — not suppressed inline.
    ``errors`` are files that could not be parsed.  The run gates on both.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    errors: List[str] = field(default_factory=list)
    files_scanned: int = 0
    rule_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def stats(self) -> Dict[str, object]:
        """A JSON-ready summary (the CI ``--stats`` artifact)."""
        return {
            "files_scanned": self.files_scanned,
            "actionable": len(self.findings),
            "suppressed_inline": self.suppressed,
            "parse_errors": len(self.errors),
            "by_rule": dict(sorted(self.rule_counts.items())),
        }


def module_rel_path(path: str) -> str:
    """Module-relative posix path: from the rightmost ``repro`` component.

    ``/repo/src/repro/net/adversity.py`` → ``repro/net/adversity.py``;
    paths without a ``repro`` component (tests, benchmarks, fixtures) are
    returned relative as given — rules scoped to ``repro/`` then skip them
    by construction.  Using the *rightmost* component lets the test suite
    exercise rules on fixture trees like ``tmp/.../repro/core/x.py``.
    """
    normalized = path.replace(os.sep, "/").lstrip("./")
    parts = normalized.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return normalized


def collect_files(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", ".git"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    # De-duplicate while keeping the sorted order stable.
    seen: set = set()
    unique: List[str] = []
    for path in sorted(out):
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def lint_paths(paths: List[str], config: Optional[LintConfig] = None) -> LintReport:
    """Run every registered rule over ``paths`` and apply inline suppressions.

    A raw finding is sanctioned only by a ``# detlint: disable=...`` on its
    line (or file-wide); what survives is actionable and fails the run.
    """
    config = config or DEFAULT_CONFIG
    report = LintReport()
    modules: List[ModuleFile] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    for path in collect_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            module = ModuleFile(path=path, module_rel=module_rel_path(path), source=source)
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append(f"{path}: {exc}")
            continue
        modules.append(module)
        suppressions[module.module_rel] = SuppressionIndex(module.source_lines)
    report.files_scanned = len(modules)

    raw: List[Tuple[Finding, str]] = []  # (finding, module_rel for suppression lookup)
    rules = all_rules()
    for module in modules:
        for rule in rules:
            for finding in rule.check_module(module, config):
                raw.append((finding, module.module_rel))
    project = Project(modules)
    for rule in rules:
        for finding in rule.check_project(project, config):
            raw.append((finding, finding.path))

    for finding, module_rel in raw:
        report.rule_counts[finding.rule] = report.rule_counts.get(finding.rule, 0) + 1
        index = suppressions.get(module_rel)
        if index is not None and index.suppresses(finding.rule, finding.line):
            report.suppressed += 1
            continue
        report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


__all__ = ["LintReport", "collect_files", "lint_paths", "module_rel_path"]
