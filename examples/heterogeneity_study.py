"""Heterogeneity study: why letting cluster sizes differ pays off (E3).

Given 9 nodes in Asia and 5 in Europe, a homogeneous protocol must build two
equal clusters, which forces one cluster to straddle the two continents.
Hamava can align clusters with regions (setup 2) and even split the large
region into two local clusters (setup 3).  The example runs the
``e3_hotstuff`` row of the figures table — each setup is one declarative
scenario, and the grid fans out over two worker processes — and prints the
throughput/latency comparison of Fig. 4b/4c.

Run with::

    python examples/heterogeneity_study.py
"""

from __future__ import annotations

from repro.harness import experiments


def main() -> None:
    rows = experiments.run_figure("e3_hotstuff", workers=2)
    experiments.print_rows(rows, experiments.FIGURES["e3_hotstuff"].title)
    for scale in (1, 2):
        by_setup = {row["setup"]: row for row in rows if row["scale"] == scale}
        gain = by_setup["setup2"]["throughput"] / max(by_setup["setup1"]["throughput"], 1e-9)
        print(
            f"scale {scale}: region-aligned heterogeneous clusters deliver "
            f"{gain:.1f}x the throughput of the homogeneous split"
        )


if __name__ == "__main__":
    main()
