"""Fixed-seed determinism probe for the perf suite.

Runs a small pinned scenario twice in-process and fingerprints the result.
The fingerprint covers the full :class:`~repro.harness.runner.ResultRow`
JSON (metrics, network counters, labels) plus the kernel event count, so
*any* change to simulated behaviour — timing, ordering, delivery
discipline — changes it.

The probe also runs the same scenario once more on two forked shard workers
(``run_sharded_parallel``) and compares byte-for-byte against the serial
payload: splitting clusters across workers is an execution-strategy knob,
never a semantics knob, and CI's perf-smoke job gates on that parity the
same way it gates on repeatability.

Since v4 the probe runs the whole battery a second time with the
``hotstuff_chained`` engine: its own fingerprint, repeatability and sharded
parity verdicts, its own wire/op invariant — and the headline claim of the
chained engine, that it commits the same workload with *fewer* wire messages
per operation than basic HotStuff, becomes a gated boolean.

Each battery also reports two deterministic work counters of the crypto
layer (``KeyRegistry.counters()``): link-layer signatures minted per
committed operation, and how many of those ever had their payload digest
walked.  The second is gated by ``--compare`` against the committed value
(0 on this fault-free probe) — a count gates, wall-clock does not.

The probe is deliberately independent of ``--quick``: it always runs the
same shape, so a quick CI run can be compared against a committed full run.
Timing comparisons between perf reports stay non-gating (shared-runner
noise); the determinism fingerprints and the parity verdicts are the
things the perf-smoke job *fails* on, because a mismatch means behaviour
drifted without a sanctioned golden re-pin (see ``tests/repin_goldens.py``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

#: Bump when the probe scenario itself changes, so fingerprint mismatches
#: caused by probe redefinition are distinguishable from behaviour drift.
#: v2: fingerprint payload gained ``operations``; the probe now reports the
#: wire-messages-per-committed-op invariant the compare step gates on.
#: v3: cluster-sharded kernel — per-sender latency jitter streams and
#: owner-routed cross-cluster mailboxes changed same-seed schedules
#: (sanctioned re-pin); the probe now also gates serial-vs-sharded parity.
#: v4: chained HotStuff engine — the probe battery now runs a second,
#: ``hotstuff_chained`` pass (fingerprint, repeatability, sharded parity,
#: wire/op) and gates chained-beats-basic on wire/op; the basic pass was
#: also re-pinned for the receiver-side LocalShare CPU charging fix.
PROBE_VERSION = 4


def _probe_spec(engine: str = "hotstuff", shards: int = 1):
    from repro.harness.builder import Scenario

    builder = (
        Scenario("determinism-probe")
        .clusters(4, 4)
        .engine(engine)
        .threads(4)
        .duration(0.75, warmup=0.1)
        .seeds(7)
    )
    if shards > 1:
        builder = builder.shards(shards, parallel=True)
    return builder.spec()


def _engine_battery(engine: str) -> Dict[str, object]:
    """Two serial runs plus one 2-worker forked run of one engine's probe scenario."""
    import json

    from repro.harness.parallel import run_sharded_parallel

    def fingerprinted(metrics, stats, events: int) -> str:
        return json.dumps(
            {
                "summary": metrics.summary(),
                "network": stats.snapshot(),
                "events": events,
                "operations": metrics.committed_count(),
            },
            sort_keys=True,
        )

    def one_run() -> Tuple[str, Dict[str, int]]:
        spec = _probe_spec(engine=engine)
        deployment = spec.build()
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        blob = fingerprinted(metrics, deployment.network.stats, deployment.simulator.events_processed)
        # The crypto work counters stay outside the fingerprinted blob: they
        # describe the simulator's own effort, not simulated behaviour, so
        # they are free to fall without a re-pin.
        return blob, deployment.registry.counters()

    def without_events(blob: str) -> str:
        # The serial path processes its mailbox flushes as events; forked
        # workers drain outboxes between windows instead, so the raw event
        # count differs by design.  Everything observable — metrics,
        # network counters, operations — must still match exactly.
        data = json.loads(blob)
        data.pop("events", None)
        return json.dumps(data, sort_keys=True)

    first, crypto = one_run()
    second, _ = one_run()
    outcome = run_sharded_parallel(_probe_spec(engine=engine, shards=2))
    sharded = fingerprinted(outcome.metrics, outcome.network_stats, outcome.events)
    payload = f"v{PROBE_VERSION}|{engine}|{first}".encode("utf-8")
    data = json.loads(first)
    operations = data["operations"]
    wire = data["network"]["messages_sent"]
    return {
        "events": data["events"],
        "wire_messages_per_committed_op": wire / operations if operations else 0.0,
        # Deterministic crypto work counters (ROADMAP aim 1b): link-layer
        # signatures minted per op, and how many of them ever had their
        # payload digest walked — the latter is gated by ``--compare``.
        "envelope_signatures_per_op": (
            crypto["envelope_signatures"] / operations if operations else 0.0
        ),
        "envelope_digests_read_per_op": (
            crypto["envelope_digests_read"] / operations if operations else 0.0
        ),
        "fingerprint": hashlib.sha256(payload).hexdigest(),
        "repeat_identical": first == second,
        # Serial vs two forked workers, same seed: must be byte-identical.
        "sharded_parity_identical": without_events(first) == without_events(sharded),
    }


def run_probe() -> Dict[str, object]:
    """Run both engine batteries; fingerprints, verdicts, invariants."""
    basic = _engine_battery("hotstuff")
    chained = _engine_battery("hotstuff_chained")
    return {
        "probe_version": PROBE_VERSION,
        "scenario": "determinism-probe (4+4, 0.75s, seed 7; hotstuff + chained)",
        "events": basic["events"],
        # Deterministic protocol-efficiency invariant (see macro_bench):
        # gated by ``--compare`` so a quiet-round regression fails fast even
        # though the probe's duration differs from the macro run's.
        "wire_messages_per_committed_op": basic["wire_messages_per_committed_op"],
        "envelope_signatures_per_op": basic["envelope_signatures_per_op"],
        "envelope_digests_read_per_op": basic["envelope_digests_read_per_op"],
        "fingerprint": basic["fingerprint"],
        "repeat_identical": basic["repeat_identical"],
        "sharded_parity_identical": basic["sharded_parity_identical"],
        "chained_events": chained["events"],
        "chained_wire_messages_per_committed_op": chained[
            "wire_messages_per_committed_op"
        ],
        "chained_envelope_signatures_per_op": chained["envelope_signatures_per_op"],
        "chained_envelope_digests_read_per_op": chained["envelope_digests_read_per_op"],
        "chained_fingerprint": chained["fingerprint"],
        "chained_repeat_identical": chained["repeat_identical"],
        "chained_sharded_parity_identical": chained["sharded_parity_identical"],
        # The chained engine's reason to exist, as a gated invariant.
        "chained_reduces_wire": (
            chained["wire_messages_per_committed_op"]
            < basic["wire_messages_per_committed_op"]
        ),
    }


__all__ = ["PROBE_VERSION", "run_probe"]
