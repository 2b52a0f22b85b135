"""Regenerate the pinned fixed-seed goldens (``python -m tests.repin_goldens``).

The E0 determinism goldens (``tests/goldens_e0.json``) hold one entry per
consensus engine in ``ENGINES``, each over the same fixed-seed scenario:
its metrics summary, network counters, and kernel event count, bit-for-bit.
Beside them, under ``determinism_gate``, sit the fingerprints of the
determinism gate's scenarios (``tests/test_determinism_gate.py``): each
scenario's ``ResultRow`` fields plus its kernel event count, so a drift
names the fields that moved.  They cover joins, leaves, crashes, Byzantine
leaders, leases, open loop and every engine and preset.  Any change that
alters simulated *timing* — not just real behaviour — breaks them by design.

Golden re-pin policy (also summarized in the README):

* A re-pin is sanctioned only when a PR *deliberately* changes simulated
  semantics (event scheduling, latency arithmetic, delivery discipline) and
  says so; it must never be used to paper over an unexplained diff.
* Re-pin exactly once per such PR, via this module, and commit the printed
  diff summary in the PR description.
* Pure performance work must keep the goldens bit-identical; ``--check``
  (used by tests and CI) verifies that without rewriting anything.

Usage::

    PYTHONPATH=src python -m tests.repin_goldens          # rewrite + diff summary
    PYTHONPATH=src python -m tests.repin_goldens --check  # verify only (exit 1 on drift)
"""

from __future__ import annotations

import json
import os
import sys

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens_e0.json")


def e0_spec(engine: str = "hotstuff"):
    """The fixed-seed E0-style scenario the goldens pin, on one engine."""
    from repro.harness.builder import Scenario

    return (
        Scenario("determinism-e0")
        .clusters(4, 4)
        .engine(engine)
        .threads(4)
        .duration(2.0, warmup=0.25)
        .seeds(7)
        .spec()
    )


def compute_entry(engine: str) -> dict:
    """Run the pinned scenario once on ``engine`` and return its golden values."""
    spec = e0_spec(engine)
    deployment = spec.build()
    metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
    stats = deployment.network.stats
    snapshot = stats.snapshot()
    delivered = snapshot["messages_delivered"] + snapshot["loopback_messages"]
    events = deployment.simulator.events_processed
    operations = metrics.committed_count()
    return {
        "wire_messages_per_committed_op": (
            snapshot["messages_sent"] / operations if operations else 0.0
        ),
        "scenario": {
            "name": spec.name,
            "clusters": [list(cluster) for cluster in spec.clusters],
            "engine": engine,
            "threads": 4,
            "duration": 2.0,
            "warmup": 0.25,
            "seed": 7,
        },
        "summary": metrics.summary(),
        "network": snapshot,
        "events": events,
        "events_per_delivered_message": events / delivered if delivered else 0.0,
    }


#: Key of the determinism gate's fingerprints in the goldens file.
GATE_KEY = "determinism_gate"


def compute_goldens() -> dict:
    """Every engine's golden values, keyed by engine name, plus the gate's."""
    from repro.consensus.registry import ENGINES

    from tests.test_determinism_gate import _table, fingerprints

    goldens = {engine: compute_entry(engine) for engine in sorted(ENGINES)}
    goldens[GATE_KEY] = fingerprints(list(_table()))
    return goldens


def load_goldens() -> dict:
    """The committed goldens, keyed by engine name (empty dict if never pinned)."""
    if not os.path.exists(GOLDENS_PATH):
        return {}
    with open(GOLDENS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _flatten(prefix: str, value) -> dict:
    if isinstance(value, dict):
        flat = {}
        for key, nested in value.items():
            flat.update(_flatten(f"{prefix}.{key}" if prefix else str(key), nested))
        return flat
    return {prefix: value}


def diff_summary(old: dict, new: dict) -> list:
    """Human-readable per-field diff lines between two golden dicts."""
    flat_old = _flatten("", old)
    flat_new = _flatten("", new)
    lines = []
    for key in sorted(set(flat_old) | set(flat_new)):
        before = flat_old.get(key, "<absent>")
        after = flat_new.get(key, "<absent>")
        if before == after:
            continue
        if isinstance(before, (int, float)) and isinstance(after, (int, float)) and before:
            lines.append(f"  {key}: {before} -> {after}  ({after / before:.3f}x)")
        else:
            lines.append(f"  {key}: {before} -> {after}")
    return lines


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    check_only = "--check" in argv
    old = load_goldens()
    new = compute_goldens()
    lines = diff_summary(old, new)
    if not lines:
        print(f"[goldens] {GOLDENS_PATH} is up to date (no drift)")
        return 0
    print(f"[goldens] {len(lines)} field(s) differ from the committed goldens:")
    for line in lines:
        print(line)
    if check_only:
        print("[goldens] --check: refusing to rewrite; see the re-pin policy in this "
              "module's docstring")
        return 1
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(new, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[goldens] re-pinned {GOLDENS_PATH}")
    print("[goldens] include the diff summary above in the PR that sanctions this re-pin")
    return 0


if __name__ == "__main__":
    sys.exit(main())
