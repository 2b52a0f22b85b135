"""The pre-optimisation perf baseline every run is compared against.

Recorded once, on the seed hot path (commit 806ae8f: dataclass events
compared field-by-field in the heap, per-message closures, uncached
``repr``-based digests, no heap compaction) with::

    PYTHONPATH=src python -m benchmarks.perf --record-baseline

The ``replica_*`` and ``workload_*`` entries were introduced together with
their suites one PR later (commit 789fe45 state: post kernel/network
overhaul, pre protocol/workload optimisation), so their baselines capture
the code as it stood immediately before the optimisations they measure.

Numbers are machine-dependent; the *speedups* reported next to them are
not (same machine, same process, same workload sizes).  Re-record only if
the workload definitions in this package change, and say so in the PR.
"""

from __future__ import annotations

from typing import Dict

#: Best-of-N results of the seed implementation (filled by --record-baseline).
BASELINE: Dict[str, Dict[str, float]] = {
    "kernel_events": {
        "events": 200000.0,
        "events_per_sec": 159424.02624601327,
        "wall_s": 1.254516051999417
    },
    "kernel_timer_churn": {
        "resets": 99968.0,
        "resets_per_sec": 221816.6402069912,
        "wall_s": 0.4506785420007873
    },
    "macro_e0": {
        "events": 83361.0,
        "events_per_sec": 33294.551730094914,
        "operations": 8216.0,
        # Derived from the recorded operations/wall_s of the same baseline
        # run, added when the macro headline switched to useful work per
        # wall second (the fused pipeline halved events per message, so
        # events_per_sec stopped measuring progress).
        "ops_per_sec": 3281.486931966312,
        "sim_duration_s": 3.0,
        "wall_s": 2.503742975000023
    },
    "network_multicast": {
        "messages": 21600.0,
        "messages_per_sec": 88369.27102936718,
        "wall_s": 0.24442885799999203
    },
    "replica_bundle_accounting": {
        "messages": 2000.0,
        "messages_per_sec": 2038.8059224247481,
        "wall_s": 0.9809663479991286
    },
    "replica_view_churn": {
        "lookups": 20000.0,
        "lookups_per_sec": 642485.4627187353,
        "wall_s": 0.03112910900017596
    },
    "workload_ycsb": {
        "ops": 200000.0,
        "ops_per_sec": 1464953.496329031,
        "wall_s": 0.13652310500037856
    },
    "workload_zipf": {
        "draws": 1000000.0,
        "draws_per_sec": 2181791.6401317474,
        "wall_s": 0.45833890899848484
    }
}

#: The headline metric of each workload, used for speedup reporting.
HEADLINE_METRICS: Dict[str, str] = {
    "kernel_events": "events_per_sec",
    "kernel_timer_churn": "resets_per_sec",
    "network_multicast": "messages_per_sec",
    # Point-to-point twin of the multicast ring, introduced with the lazy
    # link-layer signature; no pre-optimisation baseline, absolute rate only.
    "network_signed_send": "messages_per_sec",
    "macro_e0": "ops_per_sec",
    # Introduced with the open-loop population subsystem; no pre-optimisation
    # baseline exists (the model is new), so only the absolute rate prints.
    "population_open_loop": "ops_per_sec",
    # Introduced with the cluster-sharded kernel; the headline is the
    # wall-clock speedup of 4 forked shard workers over serial on the same
    # spec.  Non-gating and host-dependent — the result row carries
    # ``host_cores`` because the speedup is bounded by physical cores.
    "sharded_sweep": "speedup_vs_serial",
    "replica_bundle_accounting": "messages_per_sec",
    "replica_view_churn": "lookups_per_sec",
    "workload_zipf": "draws_per_sec",
    "workload_ycsb": "ops_per_sec",
}


def speedups(results: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Headline-metric ratios ``current / baseline`` per workload."""
    ratios: Dict[str, float] = {}
    for name, metric in HEADLINE_METRICS.items():
        base = BASELINE.get(name, {}).get(metric)
        current = results.get(name, {}).get(metric)
        if base and current:
            ratios[name] = current / base
    return ratios


__all__ = ["BASELINE", "HEADLINE_METRICS", "speedups"]
