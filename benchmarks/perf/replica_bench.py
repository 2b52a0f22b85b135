"""Microbenchmarks for the replica-side protocol accounting.

Two workloads, mirroring the per-message work `HamavaReplica` does in
stages 2 and 3:

* ``bundle_accounting`` — construct ``Inter``/``LocalShare`` messages around
  one sealed :class:`~repro.core.types.OperationsBundle` and pay the
  receive-side validation walk (signing digest, size accounting, commit
  digest, certificate check).  This is the per-(message, replica) cost of
  shipping a round's operations between clusters.
* ``view_churn`` — the membership-view lookups stage 2 performs per outbound
  bundle (``members``/``local_members``/``faults`` for every cluster),
  interleaved with join/leave reconfigurations that change the view, as in
  experiments E5/E7.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.consensus.interface import commit_digest
from repro.core.config import SystemConfig, failure_threshold
from repro.core.replica import HamavaReplica
from repro.core.types import OperationsBundle, join_request, leave_request, make_transaction
from repro.harness.scenario import ScenarioSpec
from repro.net.crypto import KeyRegistry


def _sealed_bundle(registry: KeyRegistry, members, transactions: int) -> OperationsBundle:
    """Build a bundle with a realistic batch and a ``2f+1`` commit certificate."""
    txns = [
        make_transaction("client", members[0], "write", f"user{i}", value="x" * 64)
        for i in range(transactions)
    ]
    digest = commit_digest(0, 1, txns)
    certificate = registry.new_certificate(digest)
    threshold = 2 * failure_threshold(len(members)) + 1
    for member in members[:threshold]:
        certificate.add(registry.sign(member, digest))
    return OperationsBundle(
        cluster_id=0, round_number=1, transactions=txns, txn_certificate=certificate
    )


def bench_bundle_accounting(
    messages: int = 2_000, transactions: int = 100, repeats: int = 3
) -> Dict[str, float]:
    """Per-message bundle accounting: digest + size + certificate validation."""
    from repro.core.messages import Inter, LocalShare

    registry = KeyRegistry(seed=5)
    members = [f"c0/r{i}" for i in range(4)]
    for member in members:
        registry.register(member)
    threshold = 2 * failure_threshold(len(members)) + 1
    best = float("inf")
    for _ in range(repeats):
        bundle = _sealed_bundle(registry, members, transactions)
        started = time.perf_counter()
        for index in range(messages):
            # Leader side: one Inter per remote target (sign digest + size).
            inter = Inter(round_number=1, cluster_id=0, bundle=bundle)
            inter.digest()
            inter.cached_size()
            # Receiver side: validate and re-share locally.  (A plain check,
            # not an assert: the validation walk is the dominant measured
            # cost and must survive ``python -O``.)
            expected = commit_digest(0, 1, bundle.transactions)
            if not registry.certificate_valid(
                bundle.txn_certificate, members, threshold, digest=expected
            ):
                raise RuntimeError("bench bundle certificate unexpectedly invalid")
            share = LocalShare(round_number=1, cluster_id=0, bundle=bundle)
            share.digest()
            share.cached_size()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return {
        "messages": float(messages),
        "wall_s": best,
        "messages_per_sec": messages / best,
    }


def bench_view_churn(
    lookups: int = 20_000, reconfig_every: int = 50, repeats: int = 3
) -> Dict[str, float]:
    """Stage-2 view lookups per message, under join/leave view churn."""
    best = float("inf")
    for _ in range(repeats):
        deployment = ScenarioSpec(
            clusters=[(4, "us-west1"), (4, "europe-west3")], seed=17, client_threads=1
        ).build()
        replica: HamavaReplica = deployment.replicas["c0/r0"]
        cluster_ids = sorted(replica.view)
        joiner = 0
        started = time.perf_counter()
        for index in range(lookups):
            # The per-bundle fan-out walk of GlobalSharing.inter_broadcast.
            replica.local_members()
            for cluster_id in cluster_ids:
                members = replica.members(cluster_id)
                members[: replica.faults(cluster_id) + 1]
            if index % reconfig_every == reconfig_every - 1:
                # Churn the view: join then leave an extra replica.
                if joiner:
                    replica.execution.apply_reconfig(1, leave_request(f"extra{joiner}", 1))
                joiner += 1
                replica.execution.apply_reconfig(1, join_request(f"extra{joiner}", 1, "europe-west3"))
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return {
        "lookups": float(lookups),
        "wall_s": best,
        "lookups_per_sec": lookups / best,
    }


def run(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Run both replica workloads; ``quick`` shrinks them for CI smoke runs."""
    scale = 10 if quick else 1
    return {
        "replica_bundle_accounting": bench_bundle_accounting(messages=2_000 // scale),
        "replica_view_churn": bench_view_churn(lookups=20_000 // scale),
    }


__all__ = ["bench_bundle_accounting", "bench_view_churn", "run"]
