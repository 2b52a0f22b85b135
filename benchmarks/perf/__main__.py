"""CLI entry point: ``python -m benchmarks.perf``.

Runs the kernel, network, and macro benchmarks and writes ``BENCH_perf.json``
at the repo root (override with ``--output``).  The file carries both the
fresh results and the fixed pre-optimisation baseline, plus the headline
speedup ratios, so the perf trajectory is a single self-describing artifact.

Every run also executes the fixed-seed determinism probe
(:mod:`benchmarks.perf.determinism`); its fingerprint lands in the report.
``--compare`` exits non-zero **only** on a determinism mismatch, a
serial-vs-sharded parity break, a regression of one of the probe's exact
work counters (wire messages per op, envelope digests read per op), or a
harness crash — timing ratios (including the sharded-speedup row) are
printed but never gate, per the host-variance caveat.  This is what CI's
``perf-smoke`` job runs.

Flags:
    --quick        ~10x smaller workloads (CI smoke); the probe is unaffected.
    --only NAMES   comma-separated subset:
                   kernel,network,replica,workload,macro,population,sharded.
    --ab PAIR      paired same-window A/B comparison (interleaved arms,
                   mean ± spread); see benchmarks/perf/ab.py.
    --output PATH  where to write the JSON (default: <repo>/BENCH_perf.json).
    --compare OLD  after running, print per-bench speedups vs a prior
                   BENCH_perf.json (the perf trajectory in one command) and
                   gate on its determinism fingerprint.
    --against NEW  with --compare: skip running and diff two result files.
    --record-baseline
                   also rewrite ``baseline.py`` with these results (use only
                   when intentionally re-anchoring the baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from benchmarks.perf import REPO_ROOT, ensure_importable

ensure_importable()

from benchmarks.perf import (  # noqa: E402
    ab,
    baseline,
    determinism,
    kernel_bench,
    macro_bench,
    network_bench,
    population_bench,
    replica_bench,
    sharded_bench,
    workload_bench,
)

_SUITES = {
    "kernel": kernel_bench.run,
    "network": network_bench.run,
    "replica": replica_bench.run,
    "workload": workload_bench.run,
    "macro": macro_bench.run,
    "population": population_bench.run,
    "sharded": sharded_bench.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads (CI smoke)")
    parser.add_argument(
        "--only", default="", help=f"comma-separated subset of: {','.join(_SUITES)}"
    )
    parser.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_perf.json"))
    parser.add_argument("--record-baseline", action="store_true")
    parser.add_argument(
        "--compare",
        default="",
        metavar="OLD_JSON",
        help="after running, print per-bench speedups vs a prior BENCH_perf.json",
    )
    parser.add_argument(
        "--against",
        default="",
        metavar="NEW_JSON",
        help="with --compare: skip running and diff this results file against OLD_JSON",
    )
    parser.add_argument(
        "--ab",
        default="",
        metavar="PAIR",
        help="run a paired same-window A/B comparison (interleaved arms, "
             f"mean ± spread) instead of the suites; one of {','.join(ab.PAIRS)} or 'all'",
    )
    args = parser.parse_args(argv)

    if args.ab:
        names = list(ab.PAIRS) if args.ab == "all" else [args.ab]
        unknown = sorted(set(names) - set(ab.PAIRS))
        if unknown:
            parser.error(f"unknown A/B pair(s) {unknown}; choose from {sorted(ab.PAIRS)} or 'all'")
        duration = 1.0 if args.quick else 2.0
        for name in names:
            print(f"[perf] running A/B pair {name}{' (quick)' if args.quick else ''}...", flush=True)
            for line in ab.format_report(ab.run_pair(name, duration=duration)):
                print(line)
        return 0

    if args.against and not args.compare:
        parser.error("--against requires --compare")
    if args.against:
        with open(args.against, "r", encoding="utf-8") as handle:
            new_report = json.load(handle)
        return _print_comparison(args.compare, new_report)

    chosen = [name.strip() for name in args.only.split(",") if name.strip()] or list(_SUITES)
    unknown = sorted(set(chosen) - set(_SUITES))
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; choose from {sorted(_SUITES)}")
    if args.record_baseline and (args.quick or set(chosen) != set(_SUITES)):
        # A partial or shrunken run must never re-anchor the reference: it
        # would silently delete the other suites' baselines or record them
        # at the wrong workload scale.
        parser.error("--record-baseline requires a full-scale run of every suite "
                     "(no --quick, no --only)")

    results = {}
    for name in chosen:
        print(f"[perf] running {name} benchmarks{' (quick)' if args.quick else ''}...", flush=True)
        results.update(_SUITES[name](quick=args.quick))

    # The determinism probe runs regardless of --quick/--only: it is cheap,
    # shape-independent of the workload scale, and the only thing the CI
    # perf-smoke job gates on (timings stay informational).
    print("[perf] running determinism probe...", flush=True)
    probe = determinism.run_probe()
    report = {
        "schema": 2,
        "suite": "repro-perf",
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
        "determinism": probe,
        "baseline": baseline.BASELINE,
        "headline_metrics": baseline.HEADLINE_METRICS,
        "speedup_vs_baseline": baseline.speedups(results),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[perf] wrote {args.output}")
    for name, metrics in results.items():
        headline = baseline.HEADLINE_METRICS.get(name)
        value = metrics.get(headline, 0.0) if headline else 0.0
        ratio = report["speedup_vs_baseline"].get(name)
        suffix = f"  ({ratio:.2f}x vs baseline)" if ratio else ""
        print(f"[perf]   {name}: {value:,.0f} {headline}{suffix}")

    if not probe["repeat_identical"] or not probe.get("chained_repeat_identical", True):
        print("[perf] DETERMINISM FAILURE: two same-seed probe runs disagreed "
              "within one process")
        return 1
    if not probe.get("sharded_parity_identical", True) or not probe.get(
        "chained_sharded_parity_identical", True
    ):
        print("[perf] SHARDED PARITY FAILURE: the probe scenario produced "
              "different results serially and at shards=2 (the sharded kernel "
              "must be a pure execution-strategy knob)")
        return 1
    if not probe.get("chained_reduces_wire", True):
        print("[perf] CHAINED WIRE FAILURE: hotstuff_chained committed the probe "
              "workload with MORE wire messages per operation than basic "
              "hotstuff — the pipelined engine's headline invariant")
        return 1
    if args.record_baseline:
        _rewrite_baseline(results)
        print("[perf] baseline.py re-anchored to these results")
    if args.compare:
        return _print_comparison(args.compare, report)
    return 0


def _headline_value(entry: dict, metric: str):
    """Read a headline metric, deriving it for reports that predate it.

    ``macro_e0`` switched its headline from ``events_per_sec`` to
    ``ops_per_sec`` when the fused pipeline made event volume incomparable;
    old reports still carry ``operations`` and ``wall_s``, so the rate is
    reconstructible.
    """
    value = entry.get(metric)
    if value:
        return value
    if metric == "ops_per_sec" and entry.get("operations") and entry.get("wall_s"):
        return entry["operations"] / entry["wall_s"]
    return None


def _print_comparison(old_path: str, new_report: dict) -> int:
    """Print per-bench headline speedups of ``new_report`` vs an old report.

    This is the one-command perf trajectory across PRs::

        python -m benchmarks.perf --compare old/BENCH_perf.json

    Gating: returns non-zero **only** when the two reports' determinism
    fingerprints disagree — same-seed simulation behaviour drifted without a
    sanctioned golden re-pin.  Timing ratios are always informational (the
    ``<-- REGRESSION`` flag marks crash-grade slowdowns for humans): shared
    CI runners swing far too much to gate on wall-clock, per the
    host-variance caveat in the README.
    """
    with open(old_path, "r", encoding="utf-8") as handle:
        old_report = json.load(handle)
    old_results = old_report.get("results", {})
    new_results = new_report.get("results", {})
    if old_report.get("quick") != new_report.get("quick"):
        print(
            "[perf][compare] WARNING: quick-mode mismatch "
            f"(old quick={old_report.get('quick')}, new quick={new_report.get('quick')}); "
            "headline metrics are rates, so ratios remain indicative only"
        )
    print(f"[perf] comparison vs {old_path}:")
    for name in sorted(set(old_results) | set(new_results)):
        if name not in old_results or name not in new_results:
            status = "only in new" if name in new_results else "only in old"
            print(f"[perf]   {name}: ({status})")
            continue
        # The reports are self-describing; fall back to this checkout's
        # registry only for reports written before headline_metrics existed.
        metric = (
            new_report.get("headline_metrics", {}).get(name)
            or old_report.get("headline_metrics", {}).get(name)
            or baseline.HEADLINE_METRICS.get(name)
        )
        old_value = _headline_value(old_results[name], metric) if metric else None
        new_value = _headline_value(new_results[name], metric) if metric else None
        if not old_value or not new_value:
            print(f"[perf]   {name}: (no shared headline metric)")
            continue
        ratio = new_value / old_value
        flag = "  <-- REGRESSION (non-gating)" if ratio < 0.5 else ""
        print(f"[perf]   {name}: {old_value:,.0f} -> {new_value:,.0f} {metric}  ({ratio:.2f}x){flag}")
    old_probe = old_report.get("determinism")
    new_probe = new_report.get("determinism")
    if new_probe is not None and not (
        new_probe.get("repeat_identical", True)
        and new_probe.get("chained_repeat_identical", True)
    ):
        print("[perf][compare] DETERMINISM FAILURE: the new report's probe was "
              "not repeatable")
        return 1
    if new_probe is not None and not (
        new_probe.get("sharded_parity_identical", True)
        and new_probe.get("chained_sharded_parity_identical", True)
    ):
        print("[perf][compare] SHARDED PARITY FAILURE: the new report's probe "
              "diverged between serial and shards=2 execution (gating)")
        return 1
    if new_probe is not None and not new_probe.get("chained_reduces_wire", True):
        print("[perf][compare] CHAINED WIRE FAILURE: hotstuff_chained spent more "
              "wire messages per committed op than basic hotstuff (gating)")
        return 1
    if old_probe is None or new_probe is None:
        print("[perf][compare] determinism: no fingerprint on one side "
              "(pre-probe report); nothing to gate on")
        return 0
    if old_probe.get("probe_version") != new_probe.get("probe_version"):
        print("[perf][compare] determinism: probe versions differ "
              f"({old_probe.get('probe_version')} vs {new_probe.get('probe_version')}); "
              "re-pin the committed report")
        return 0
    # Wire messages per committed operation: deterministic per seed, so —
    # unlike the timing rates — it gates.  Checked *before* the fingerprint:
    # any wire/op change also changes the fingerprint, and a regression
    # should fail with this targeted diagnosis rather than the generic
    # drift message (which a sanctioned re-pin would clear without anyone
    # noticing the protocol got chattier).  The 2% head-room only absorbs
    # float noise.
    for key, label in (
        ("wire_messages_per_committed_op", "wire/op"),
        ("chained_wire_messages_per_committed_op", "chained wire/op"),
    ):
        old_ratio = old_probe.get(key)
        new_ratio = new_probe.get(key)
        if old_ratio is None or new_ratio is None:
            continue  # older report predates this probe key; nothing to gate
        if new_ratio > old_ratio * 1.02 or (old_ratio > 0.0 and new_ratio == 0.0):
            print(f"[perf][compare] {label.upper()} REGRESSION: "
                  f"{old_ratio:.4f} -> {new_ratio:.4f} wire messages per committed "
                  "operation (gating; see the quiet-round invariant in "
                  "benchmarks/perf/macro_bench.py)")
            return 1
        print(f"[perf][compare] {label} invariant: {old_ratio:.4f} -> {new_ratio:.4f} (ok)")
    # Envelope digests read per committed operation: how many link-layer
    # signatures had their payload digest walked.  Exact per seed like
    # wire/op, and invisible to the fingerprint (it is simulator effort, not
    # simulated behaviour), so this is the only place a regression shows:
    # any reader that starts materialising envelope digests on the
    # fault-free probe fails here.
    for key, label in (
        ("envelope_digests_read_per_op", "envelope digests read/op"),
        ("chained_envelope_digests_read_per_op", "chained envelope digests read/op"),
    ):
        old_reads = old_probe.get(key)
        new_reads = new_probe.get(key)
        if old_reads is None or new_reads is None:
            continue  # older report predates this probe key; nothing to gate
        if new_reads > old_reads:
            print(f"[perf][compare] {label.upper()} REGRESSION: "
                  f"{old_reads:.4f} -> {new_reads:.4f} payload digests walked for "
                  "link-layer signatures per committed operation (gating; see "
                  "MessageSignature in src/repro/net/crypto.py)")
            return 1
        print(f"[perf][compare] {label}: {old_reads:.4f} -> {new_reads:.4f} (ok)")
    for key in ("fingerprint", "chained_fingerprint"):
        if old_probe.get(key) != new_probe.get(key):
            print("[perf][compare] DETERMINISM MISMATCH: fixed-seed behaviour drifted "
                  f"({key}: {old_probe.get(key)} -> {new_probe.get(key)}). "
                  "If this PR deliberately changes simulated semantics, re-pin the "
                  "goldens (python -m tests.repin_goldens) and regenerate "
                  "BENCH_perf.json; otherwise this is a bug.")
            return 1
    print("[perf][compare] determinism: fingerprints match")
    return 0


def _rewrite_baseline(results) -> None:
    """Rewrite the ``BASELINE = {...}`` block of baseline.py in place."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.py")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    rendered = json.dumps(results, indent=4, sort_keys=True)
    start = text.index("BASELINE: Dict[str, Dict[str, float]] = ")
    end = text.index("\n\n", start)
    text = (
        text[:start]
        + "BASELINE: Dict[str, Dict[str, float]] = "
        + rendered
        + text[end:]
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


if __name__ == "__main__":
    sys.exit(main())
