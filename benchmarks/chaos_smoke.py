"""Chaos smoke: run the E9 adversity pack and gate on its assertions.

CI's ``chaos-smoke`` job runs every E9 preset (gray leader, clock skew,
flapping partition, region outage, congestion, RTT trace) at smoke scale
and fails if **any** pinned qualitative assertion — including each
scenario's serial-vs-forked row parity — does not hold.  The flapping
partition also runs at 10 simulated seconds (``FLAPPING_LONG_DURATION``).
It then runs the same fixed-seed determinism probe as the perf suite and,
with ``--compare``, gates on the committed fingerprint: the adversity layer
must not perturb a run that schedules no adversity.

Timings are printed but never gate (shared-runner wall-clock noise).

Usage::

    python -m benchmarks.chaos_smoke [--quick] [--compare BENCH_perf.json]

    --quick        pin the pack to its tuned 6-second smoke durations,
                   ignoring REPRO_FULL / REPRO_DURATION scale overrides.
    --compare OLD  also require the determinism fingerprint (and wire/op
                   invariant) to match a committed perf report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from benchmarks.perf import ensure_importable

ensure_importable()

from benchmarks.perf import determinism  # noqa: E402

#: The tuned smoke duration every E9 preset's assertions were pinned at.
QUICK_DURATION = 6.0

#: A second run length for the flapping partition.  At this length the last
#: flap heals with the complaining cluster several complaint numbers ahead of
#: a complained cluster that has moved on a round — the lost-complaint
#: deadlock of the remote leader change, which the 6-second run never met.
FLAPPING_LONG_DURATION = 10.0


def run_pack(duration):
    """Run the E9 pack; returns (rows, all_passed)."""
    from repro.harness.experiments import run_e9, run_e9_all

    started = time.perf_counter()
    rows = run_e9_all(duration=duration)
    long_flap = run_e9("flapping_partition", duration=FLAPPING_LONG_DURATION)
    long_flap["experiment"] = f"flapping_partition@{FLAPPING_LONG_DURATION:g}s"
    rows.append(long_flap)
    elapsed = time.perf_counter() - started
    ok = True
    for row in rows:
        verdict = "PASS" if row["passed"] else "FAIL"
        ok = ok and bool(row["passed"])
        print(f"[chaos] {row['experiment']:<24} {verdict}  {json.dumps(row['assertions'])}")
    print(f"[chaos] pack wall time: {elapsed:.1f}s (non-gating)")
    return rows, ok


def run_determinism_gate(compare_path):
    """Run the fixed-seed probe; returns True when every gate holds."""
    probe = determinism.run_probe()
    ok = True
    if not probe["repeat_identical"]:
        print("[chaos] determinism: GATE FAILED — same-seed reruns diverged")
        ok = False
    if not probe["sharded_parity_identical"]:
        print("[chaos] determinism: GATE FAILED — serial vs shards=2 rows differ")
        ok = False
    if compare_path:
        with open(compare_path, "r", encoding="utf-8") as handle:
            committed = json.load(handle).get("determinism", {})
        if committed.get("probe_version") != probe["probe_version"]:
            print(
                f"[chaos] determinism: probe version changed "
                f"({committed.get('probe_version')} -> {probe['probe_version']}), "
                "fingerprint comparison skipped"
            )
        elif committed.get("fingerprint") != probe["fingerprint"]:
            print(
                "[chaos] determinism: GATE FAILED — fingerprint drifted vs "
                f"{compare_path} ({committed.get('fingerprint')} -> {probe['fingerprint']})"
            )
            ok = False
        else:
            print("[chaos] determinism: fingerprint matches committed report")
            old_wire = committed.get("wire_messages_per_committed_op")
            if old_wire is not None:
                print(
                    f"[chaos] determinism: wire/op {old_wire:.4f} -> "
                    f"{probe['wire_messages_per_committed_op']:.4f}"
                )
    if ok:
        print("[chaos] determinism: ok")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="pin the tuned smoke durations (ignore REPRO_FULL/REPRO_DURATION)",
    )
    parser.add_argument(
        "--compare",
        metavar="OLD_JSON",
        default=None,
        help="gate the determinism fingerprint against a committed perf report",
    )
    args = parser.parse_args(argv)

    duration = QUICK_DURATION if args.quick else None
    _, pack_ok = run_pack(duration)
    probe_ok = run_determinism_gate(args.compare)
    if not pack_ok:
        print("[chaos] FAILED: at least one E9 assertion did not hold")
    if pack_ok and probe_ok:
        print("[chaos] all gates passed")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
