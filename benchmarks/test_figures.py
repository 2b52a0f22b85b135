"""Regenerate every table and figure of the paper and check its claims.

One case per row of ``FIGURES``: run the figure's grid at the table's
reduced scale, print its rows (``-s`` shows them), and fail naming every
claim whose predicate is false.  Run with ``PYTHONPATH=src python -m pytest
benchmarks -q``.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import FIGURES, print_rows, run_figure


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(name):
    figure = FIGURES[name]
    rows = run_figure(name)
    print_rows(rows, figure.title)
    broken = [claim.text for claim in figure.claims if not claim.holds(rows)]
    assert not broken, f"{name}: {len(broken)} claim(s) no longer hold: {broken}"
