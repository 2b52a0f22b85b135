"""The determinism gate: a fixed-seed run means one thing.

A table of scenarios runs in two fresh interpreter processes, one with
``PYTHONHASHSEED=0`` and the table in order, the other with
``PYTHONHASHSEED=1`` and the table reversed.  Each prints one fingerprint
per scenario (its ``ResultRow`` fields plus the kernel's event count), and
the two must agree field by field; a failure names the fields that
differ.  Each difference between the runs catches one family of hazards:

- the hash seed: set iteration order and ``hash()`` of strings;
- a fresh process: ``id()`` ordering, the host clock and unseeded draws
  from the global ``random`` module;
- the reversed table: state that one run leaves behind in module globals
  and the next run in the same process reads.

The table is checked against the registries (every event kind, every
engine) so a new kind or engine cannot dodge the gate.  The fingerprints
are also pinned in ``tests/goldens_e0.json`` (written only by
``python -m tests.repin_goldens``), so a change that moves any of these
runs fails here even when both processes agree.  Run this file as a
script to print the fingerprints of the named scenarios (all, in table
order, by default)::

    PYTHONPATH=src python tests/test_determinism_gate.py [name ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.consensus.registry import ENGINES
from repro.harness.builder import Scenario
from repro.harness.runner import run_in_process
from repro.harness.scenario import EVENT_TYPES
from repro.net.adversity import RttTrace

SRC = Path(__file__).resolve().parent.parent / "src"
R = ("us-west1", "europe-west3", "asia-south1")


def _table() -> Dict[str, Scenario]:
    return {
        "hotstuff_closed_churn": (
            Scenario("gate-a").clusters(4, 4).engine("hotstuff").threads(4)
            .duration(2.0, warmup=0.1).seed(7).timeouts(0.5)
            .join(0, at=0.3, replica_id="j0").leave("c1/r3", at=0.6)
            .churn(start=0.8, period=0.5, clusters=(1,), prefix="ch").crash("c0/r3", at=1.2)
        ),
        "chained_geo_faults": (
            Scenario("gate-b").clusters((4, R[0]), (7, R[1]), (4, R[2])).engine("hotstuff_chained")
            .threads(4).duration(3.0, warmup=0.1).seed(8).timeouts(0.5)
            .crash_leader(0, at=1.0).byzantine_leader(1, at=0.8)
            .region_outage(R[2], at=1.5, duration=0.3)
        ),
        "bftsmart_adversity": (
            Scenario("gate-c").clusters((4, R[0]), (4, R[1])).engine("bftsmart").threads(4)
            .duration(2.0, warmup=0.1).seed(9).timeouts(0.5)
            .gray_leader(0, at=0.5, factor=50.0).clock_skew("c1/r1", at=0.5, rate=0.5)
            .congestion().cross_traffic(R[0], R[1], 1.1e8, start=0.5, stop=1.5)
            .rtt_trace(RttTrace.synthetic(pairs=[(R[0], R[1], 148.0)], duration=2.0, seed=3))
        ),
        "partitions_single_workflow": (
            Scenario("gate-d").clusters(4, 4, 4).engine("hotstuff").preset("single_workflow")
            .threads(4).duration(2.0, warmup=0.1).seed(10).timeouts(0.5)
            .partition(0, 1, at=0.4, duration=0.3)
            .flapping_partition(1, 2, at=0.9, period=0.3, duty=0.5, cycles=2)
            .join(2, at=0.5, replica_id="j2")
        ),
        "open_leases_geobft": (
            Scenario("gate-e").clusters(4, 4).preset("geobft").engine("bftsmart")
            .open_loop(clients=2000, rate=800.0).read_leases().duration(1.5, warmup=0.1).seed(11)
        ),
        "open_leases": (
            Scenario("gate-f").clusters(4, 7).engine("hotstuff")
            .open_loop(clients=5000, rate=1200.0).read_leases().duration(1.5, warmup=0.1).seed(12)
        ),
    }


def fingerprints(names: List[str]) -> Dict[str, Dict[str, Any]]:
    """Run the named scenarios in order, in this process.

    Each one's fingerprint is its ``ResultRow`` fields plus ``events``, the
    kernel's event count.
    """
    table = _table()
    out: Dict[str, Dict[str, Any]] = {}
    for name in names:
        row, deployment = run_in_process(table[name].spec())
        fields = json.loads(row.to_json())
        fields["events"] = deployment.simulator.events_processed
        out[name] = fields
    return out


def _spawn(hash_seed: str, names: List[str]) -> subprocess.Popen:
    # A fresh interpreter: pyproject's pythonpath applies to pytest only.
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, __file__, *names],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_two_hash_seeds_in_opposite_order_agree():
    names = list(_table())
    runs = {
        "PYTHONHASHSEED=0, in order": _spawn("0", names),
        "PYTHONHASHSEED=1, reversed": _spawn("1", names[::-1]),
    }
    results = {}
    try:
        for label, process in runs.items():
            stdout, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, f"{label} failed:\n{stderr}"
            results[label] = json.loads(stdout)
    finally:
        for process in runs.values():
            process.kill()  # a no-op for a process that has exited
            process.wait()
    forward, backward = results.values()
    assert set(forward) == set(backward) == set(names)
    # Not importable when this file runs as a script.
    from tests.repin_goldens import GATE_KEY, diff_summary, load_goldens

    differing = diff_summary(forward, backward)
    assert not differing, "fingerprints differ between the two runs:\n" + "\n".join(differing)
    pinned = load_goldens().get(GATE_KEY, {})
    moved = diff_summary({name: pinned.get(name) for name in names}, forward)
    assert not moved, "fingerprints differ from tests/goldens_e0.json:\n" + "\n".join(moved)


def test_table_covers_every_kind_engine_preset_and_model():
    specs = [scenario.spec() for scenario in _table().values()]
    for spec in specs:
        spec.validate()
    configs = [spec.compiled_config() for spec in specs]
    assert {event.kind for spec in specs for event in spec.schedule} == set(EVENT_TYPES)
    assert {config.engine for config in configs} == set(ENGINES)
    assert {"hamava", "geobft", "single_workflow"} <= {spec.preset for spec in specs}
    assert {spec.workload_model for spec in specs} == {"closed", "open"}
    assert any(config.read_leases for config in configs)
    assert any(spec.congestion is not None and spec.congestion.streams for spec in specs)
    assert any(spec.rtt_trace is not None for spec in specs)


if __name__ == "__main__":
    print(json.dumps(fingerprints(sys.argv[1:] or list(_table()))))
