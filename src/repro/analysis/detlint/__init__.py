"""detlint — static determinism & shard-safety analysis.

The runtime guarantees this reproduction sells — byte-identical fixed-seed
ResultRows, serial-vs-forked parity across worker layouts, golden-pinned
wire/op — are enforced dynamically by minutes-long parity suites and the
determinism probe.  ``detlint`` is their *static* complement: an AST
analyzer that flags, at commit time and with a ``file:line`` pointer, the
hazard classes that historically break those suites (stray RNGs outside
``sim/rng.py``, unsorted ``set`` iteration on scheduling paths,
module-level mutable state outside the deployment, hot-path classes
without ``__slots__``, unregistered protocol messages, spec dataclasses
that cannot round-trip through JSON).

Run it as::

    python -m repro.analysis.detlint src/

Findings are sanctioned inline (``# detlint: disable=RULE -- rationale``),
next to the code they excuse.  See the README's "Static analysis" section
for the rule table and policy.
"""

from __future__ import annotations

from repro.analysis.detlint.engine import LintReport, lint_paths
from repro.analysis.detlint.findings import Finding
from repro.analysis.detlint.rules import RULES, all_rules

__all__ = ["Finding", "LintReport", "RULES", "all_rules", "lint_paths"]
