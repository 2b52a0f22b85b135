"""E6 (Fig. 6a/6b): AVA-HOTSTUFF vs GeoBFT across cluster counts."""

from __future__ import annotations

from bench_helpers import BENCH_CLUSTER_COUNTS, BENCH_DURATION, BENCH_NODES, BENCH_THREADS, run_once
from repro.harness import experiments


def _run(multi_region: bool):
    return experiments.run_e6(
        cluster_counts=BENCH_CLUSTER_COUNTS,
        total_nodes=BENCH_NODES,
        multi_region=multi_region,
        duration=BENCH_DURATION,
        client_threads=BENCH_THREADS,
    )


def _check_single_region(rows):
    rows = sorted(rows, key=lambda row: row["clusters"])
    few, many = rows[0], rows[-1]
    # Fig. 6a shows GeoBFT ahead at few, large clusters; here it trails, for
    # the measured cause asserted below (README "Protocol deviations").
    assert few["geobft_throughput"] > few["ava_hotstuff_throughput"] * 0.6
    ratio_few = few["geobft_throughput"] / max(few["ava_hotstuff_throughput"], 1e-9)
    ratio_many = many["geobft_throughput"] / max(many["ava_hotstuff_throughput"], 1e-9)
    # GeoBFT gains relative ground as the cluster count grows.
    assert ratio_many > ratio_few
    # At few clusters GeoBFT's all-to-all ordering traffic is what holds it
    # back: its local reads queue behind it on the receiver CPU.
    assert few["geobft_messages"] > few["ava_hotstuff_messages"] * 3
    assert few["geobft_read_latency"] > few["ava_hotstuff_read_latency"] * 2
    # Both systems scale with the number of clusters.
    assert many["ava_hotstuff_throughput"] > few["ava_hotstuff_throughput"]


def _check_multi_region(rows):
    rows = sorted(rows, key=lambda row: row["clusters"])
    few, many = rows[0], rows[-1]
    # Fig. 6b: both systems keep scaling with the number of clusters when the
    # clusters are spread over three regions.  In our simulator AVA-HOTSTUFF
    # is ahead across the sweep here (the paper shows GeoBFT ahead at few
    # clusters).  Unlike E6.1's (README "Protocol deviations"), this level
    # deviation is not attributed yet.
    assert many["ava_hotstuff_throughput"] > few["ava_hotstuff_throughput"]
    assert many["geobft_throughput"] > few["geobft_throughput"]
    assert all(row["geobft_throughput"] > 0 for row in rows)


def test_e6_1_same_region(benchmark):
    rows = run_once(benchmark, _run, False)
    experiments.print_rows(rows, "E6.1: AVA-HOTSTUFF vs GeoBFT, single region (Fig. 6a)")
    _check_single_region(rows)


def test_e6_2_multi_region(benchmark):
    rows = run_once(benchmark, _run, True)
    experiments.print_rows(rows, "E6.2: AVA-HOTSTUFF vs GeoBFT, multiple regions (Fig. 6b)")
    _check_multi_region(rows)
