"""CLI: ``python -m repro.analysis.detlint src [tests ...]``.

Exit codes: ``0`` clean, ``1`` actionable findings, ``2`` usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.detlint.engine import lint_paths
from repro.analysis.detlint.rules import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.detlint",
        description="AST determinism & shard-safety linter for the simulator.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to scan")
    parser.add_argument("--json", action="store_true", help="emit findings as JSON on stdout")
    parser.add_argument("--stats", metavar="PATH", help="write a JSON run summary to PATH ('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true", help="print the rule table and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.title}")
            print(f"        fix: {rule.hint}")
        return 0

    report = lint_paths(args.paths)

    if args.stats:
        payload = json.dumps(report.stats(), indent=2, sort_keys=True)
        if args.stats == "-":
            print(payload)
        else:
            with open(args.stats, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")

    if args.json:
        print(json.dumps([finding.to_dict() for finding in report.findings], indent=2))
    else:
        for finding in report.findings:
            print(finding.render())

    for error in report.errors:
        print(f"detlint: error: {error}", file=sys.stderr)

    if report.errors:
        return 2
    if report.findings:
        if not args.json:
            print(
                f"detlint: {len(report.findings)} finding(s) in {report.files_scanned} file(s) "
                f"({report.suppressed} suppressed inline)",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
