"""Quiet-round BRD: safety under faults, traffic elision, and satellites.

The quiet path (see ``core/brd.py``) skips the Echo phase when the round's
aggregate is provably empty-and-unanimous.  These tests pin the safety
argument's load-bearing claims — a Byzantine leader cannot *forge*
emptiness, one pending request forces the full path, crashes mid-quiet-round
recover — plus the wire-traffic invariant the optimisation exists for, the
:class:`~repro.sim.simulator.DeadlinePool` the protocol timers moved onto,
and this PR's satellite bugfixes (fault-time fault resolution, partial
throughput buckets, crashing-scenario result rows).
"""

from __future__ import annotations

import pytest

from helpers import members_fn, small_deployment
from repro.core.brd import (
    ByzantineReliableDissemination,
    CollectionEntry,
    CollectionProof,
    canonical_recs,
    ready_digest,
    submit_digest,
)
from repro.core.messages import BrdAgg, BrdEcho
from repro.core.types import join_request
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import ScenarioRunner
from repro.harness.scenario import CrashEvent, JoinEvent, PartitionEvent, ScenarioSpec
from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import DeadlinePool, Simulator


class BrdHost(Process):
    """A process hosting one BRD instance (mirrors test_core_brd's host)."""

    def __init__(self, process_id, simulator, network, members, leader, timeout=1.0):
        super().__init__(process_id, simulator)
        network.register(self, "us-west1")
        self.delivered = []
        self.complaints = []
        self.brd = ByzantineReliableDissemination(
            owner=process_id,
            cluster_id=0,
            round_number=1,
            members_fn=members_fn(members),
            faults_fn=lambda: (len(members) - 1) // 3,
            network=network,
            simulator=simulator,
            leader=leader,
            view_ts=0,
            timeout=timeout,
            on_deliver=lambda recs, proof, cert: self.delivered.append((recs, proof, cert)),
            on_complain=self.complaints.append,
        )

    def on_message(self, sender, envelope):
        self.brd.on_message(sender, envelope)


def when_first(host, predicate, action):
    """Call ``action()`` once, right after the message on which ``predicate()`` first holds."""
    handle = host.on_message
    done = []

    def on_message(sender, envelope):
        handle(sender, envelope)
        if not done and predicate():
            done.append(True)
            action()

    host.on_message = on_message
    return done


def build_cluster(size=4, seed=9, timeout=1.0):
    simulator = Simulator(seed=seed)
    registry = KeyRegistry(seed=seed)
    network = Network(simulator, LatencyModel(), registry)
    members = [f"p{i}" for i in range(size)]
    hosts = [BrdHost(m, simulator, network, members, "p0", timeout) for m in members]
    return simulator, network, hosts


class TestQuietHappyPath:
    def test_empty_round_elides_echo_and_delivers_uniformly(self):
        simulator, network, hosts = build_cluster()
        for host in hosts:
            host.brd.broadcast(())
        simulator.run(until=5.0)
        for host in hosts:
            assert len(host.delivered) == 1
            recs, proof, cert = host.delivered[0]
            assert recs == ()
        assert network.stats.by_type.get("BrdEcho", 0) == 0, "quiet rounds must not echo"
        assert network.stats.by_type.get("BrdQuietDeliver", 0) > 0

    def test_quiet_certificate_is_the_standard_ready_certificate(self):
        simulator, network, hosts = build_cluster()
        for host in hosts:
            host.brd.broadcast(())
        simulator.run(until=5.0)
        _, _, cert = hosts[2].delivered[0]
        members = [h.process_id for h in hosts]
        # Remote clusters validate the quiet Σ' exactly like the full path's.
        assert network.registry.certificate_valid(
            cert, members, threshold=3, digest=ready_digest(0, 1, ())
        )

    def test_quiet_round_message_count_is_linear(self):
        simulator, network, hosts = build_cluster()
        for host in hosts:
            host.brd.broadcast(())
        simulator.run(until=5.0)
        by_type = network.stats.by_type
        n = len(hosts)
        # submit + agg + ready-to-leader + deliver: each one message per
        # replica (loop-backs included in the census), nothing quadratic.
        assert by_type["BrdSubmit"] == n
        assert by_type["BrdAgg"] == n
        assert by_type["BrdReady"] == n
        assert by_type["BrdQuietDeliver"] == n
        assert "BrdEcho" not in by_type


class TestQuietRoundSafety:
    def _empty_digest(self):
        return submit_digest(0, 1, ())

    def test_byzantine_leader_cannot_forge_empty_unanimity(self):
        """With f+1 correct replicas holding a request, no quiet proof exists."""
        simulator, network, hosts = build_cluster()
        request = (join_request("newbie", 0),)
        # p1 and p2 (f+1 = 2 correct replicas) hold the request; p3 is empty.
        hosts[1].brd.broadcast(request)
        hosts[2].brd.broadcast(request)
        hosts[3].brd.broadcast(())
        # The Byzantine leader p0 needs 2f+1 = 3 signed *empty* submissions
        # but can only produce two real ones (its own and p3's); p1's must be
        # forged — and forged signatures do not verify.
        entries = (
            CollectionEntry("p0", (), network.registry.sign("p0", self._empty_digest())),
            CollectionEntry("p3", (), network.registry.sign("p3", self._empty_digest())),
            CollectionEntry("p1", (), network.registry.forge("p1", self._empty_digest())),
        )
        proof = CollectionProof(cluster_id=0, round_number=1, entries=entries)
        agg = BrdAgg(
            cluster_id=0,
            round_number=1,
            view_ts=0,
            recs=(),
            collection_certificate=proof,
            attestation_kind="collection",
        )
        network.multicast(
            "p0",
            [h.process_id for h in hosts],
            agg,
            network.registry.sign("p0", agg.digest()),
        )
        simulator.run(until=5.0)
        for host in hosts[1:]:
            # The forged proof is rejected: nobody goes quiet, nobody
            # delivers the empty set.  (The *honest* leader machinery at p0
            # still aggregates the real submissions, so the request itself
            # is delivered through the full path — exactly the "one pending
            # request forces the full path" guarantee.)
            assert not host.brd.quiet
            for recs, _proof, _cert in host.delivered:
                assert recs != (), "forged emptiness must never deliver the empty set"
                assert join_request("newbie", 0) in recs

    def test_censorship_of_unstored_request_stays_uniform(self):
        """A leader may quietly omit a request held by a single replica (the
        full path permits the same), but delivery must stay uniform: the
        censored replica delivers the empty set too."""
        simulator, network, hosts = build_cluster()
        hosts[1].brd.broadcast((join_request("newbie", 0),))
        hosts[2].brd.broadcast(())
        hosts[3].brd.broadcast(())
        entries = tuple(
            CollectionEntry(p, (), network.registry.sign(p, self._empty_digest()))
            for p in ("p0", "p2", "p3")  # a real 2f+1 quorum of empty submissions
        )
        proof = CollectionProof(cluster_id=0, round_number=1, entries=entries)
        agg = BrdAgg(
            cluster_id=0,
            round_number=1,
            view_ts=0,
            recs=(),
            collection_certificate=proof,
            attestation_kind="collection",
        )
        network.multicast(
            "p0",
            [h.process_id for h in hosts],
            agg,
            network.registry.sign("p0", agg.digest()),
        )
        simulator.run(until=5.0)
        delivered = [h.delivered[0][0] for h in hosts[1:] if h.delivered]
        assert len(delivered) == 3
        assert all(recs == () for recs in delivered), "uniform empty delivery"

    def test_one_pending_request_forces_the_full_path(self):
        """Exactly one replica with a pending request: an honest leader's
        union is non-empty, so everyone runs Echo/Ready and delivers it."""
        simulator, network, hosts = build_cluster()
        request = join_request("newbie", 0)
        for host in hosts:
            host.brd.broadcast((request,) if host.process_id == "p2" else ())
        simulator.run(until=5.0)
        for host in hosts:
            assert len(host.delivered) == 1
            assert request in host.delivered[0][0]
            assert not host.brd.quiet
        assert network.stats.by_type.get("BrdEcho", 0) > 0, "full path must echo"

    def test_crash_mid_quiet_round_recovers_after_leader_change(self):
        simulator, network, hosts = build_cluster(timeout=0.5)
        for host in hosts:
            host.brd.broadcast(())

        def rotate():
            for host in hosts[1:]:
                host.brd.new_leader("p1", 1)

        def crash_leader():
            assert not hosts[1].brd.delivered
            hosts[0].crash()
            simulator.schedule(1.0, rotate)

        # Once a follower accepted the quiet aggregate (readied the empty
        # set) but nobody delivered yet, crash the leader: the deliver
        # marker is never broadcast.
        crashed = when_first(hosts[1], lambda: hosts[1].brd.quiet, crash_leader)
        simulator.run(until=6.0)
        assert crashed, "quiet aggregate never arrived"
        assert all(host.complaints for host in hosts[1:]), "timeout must complain"
        for host in hosts[1:]:
            assert len(host.delivered) == 1
            assert host.delivered[0][0] == ()

    def test_quiet_acceptor_hands_proof_to_new_leader(self):
        """A quiet acceptor's stored valid set (the collection proof) is
        accepted by the next leader's validation."""
        simulator, network, hosts = build_cluster(timeout=0.5)
        for host in hosts:
            host.brd.broadcast(())
        accepted = []
        when_first(hosts[1], lambda: hosts[1].brd.quiet, lambda: accepted.append(hosts[1].brd.valid))
        simulator.run(until=5.0)
        (valid,) = accepted
        assert valid is not None and valid.kind == "collection"
        assert hosts[2].brd._attestation_valid((), valid.certificate, "collection")


class TestQuietRoundsEndToEnd:
    def test_steady_state_deployment_sends_no_echo_submit_or_agg(self):
        deployment = small_deployment(seed=21, client_threads=4)
        deployment.run(duration=2.0)
        by_type = deployment.network.stats.by_type
        assert by_type.get("BrdEcho", 0) == 0, "steady state must take the quiet path"
        # Submissions ride the commit votes, the quiet proof rides the
        # decide broadcast (HotStuff), so neither explicit message appears.
        assert by_type.get("BrdSubmit", 0) == 0
        assert by_type.get("BrdAgg", 0) == 0
        assert by_type.get("BrdReady", 0) > 0
        assert by_type.get("BrdQuietDeliver", 0) > 0
        rounds = max(r.execution.executed_rounds for r in deployment.replicas.values())
        assert rounds > 20, "quiet rounds must not stall progress"

    def test_bftsmart_steady_state_elides_echo_and_submit(self):
        deployment = small_deployment(seed=22, engine="bftsmart", client_threads=4)
        deployment.run(duration=2.0)
        by_type = deployment.network.stats.by_type
        assert by_type.get("BrdEcho", 0) == 0
        assert by_type.get("BrdSubmit", 0) == 0
        # BFT-SMaRt has no decide broadcast to piggyback on, so the quiet
        # aggregate stays an explicit (linear) BrdAgg.
        assert by_type.get("BrdAgg", 0) > 0
        rounds = max(r.execution.executed_rounds for r in deployment.replicas.values())
        assert rounds > 20

    def test_reconfiguration_still_flows_through_quiet_regime(self):
        deployment = small_deployment(seed=23, client_threads=2)
        joiner = deployment.add_joiner(0, at_time=0.5, replica_id="newbie")
        deployment.run(duration=6.0)
        assert joiner.mode == "active", "join must complete despite quiet rounds"
        assert "newbie" in deployment.active_view(0)
        # The join round ran the full path: at least one Echo was sent.
        assert deployment.network.stats.by_type.get("BrdEcho", 0) > 0

    def test_wire_messages_per_committed_op_stays_pinned(self):
        """The quiet-round invariant, pinned like PR 4's kernel-events pin.

        Deterministic per seed.  At the quiet-round commit this measures
        ~4.20 on the golden E0 shape (6.52 before); the ceiling trips long
        before the n^2 Echo/Ready exchange could sneak back (which alone
        pushes it past 5).
        """
        from repin_goldens import e0_spec

        spec = e0_spec()
        deployment = spec.build()
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        wire = deployment.network.stats.messages_sent
        ratio = wire / metrics.committed_count()
        assert ratio <= 4.40, f"wire messages per committed op regressed: {ratio:.3f}"


class TestDeadlinePool:
    def test_fires_in_deadline_order_with_one_resident_event(self):
        simulator = Simulator()
        fired = []
        pool = DeadlinePool(simulator, fired.append, name="t")
        pool.arm("a", 3.0)
        pool.arm("b", 1.0)
        pool.arm("c", 2.0)
        assert len(simulator._queue) <= 2  # one chase (plus one re-chase)
        simulator.run(until=10.0)
        assert fired == ["b", "c", "a"]

    def test_disarm_is_lazy_and_silent(self):
        simulator = Simulator()
        fired = []
        pool = DeadlinePool(simulator, fired.append)
        pool.arm("a", 1.0)
        pool.disarm("a")
        simulator.run(until=5.0)
        assert fired == []
        assert "a" not in pool._deadlines

    def test_rearm_moves_the_deadline_forward(self):
        simulator = Simulator()
        fired = []
        pool = DeadlinePool(simulator, lambda key: fired.append((key, simulator.now)))
        pool.arm("a", 1.0)
        simulator.run(until=0.5)
        pool.arm("a", 1.0)  # now due at 1.5, not 1.0
        simulator.run(until=5.0)
        assert fired == [("a", 1.5)]

    def test_callback_may_rearm_its_own_key(self):
        simulator = Simulator()
        fired = []

        def on_fire(key):
            fired.append(simulator.now)
            if len(fired) < 3:
                pool.arm(key, 1.0)

        pool = DeadlinePool(simulator, on_fire)
        pool.arm("a", 1.0)
        simulator.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_shorter_deadline_undercuts_the_resident_event(self):
        simulator = Simulator()
        fired = []
        pool = DeadlinePool(simulator, lambda key: fired.append((key, simulator.now)))
        pool.arm("slow", 5.0)
        pool.arm("fast", 1.0)
        simulator.run(until=10.0)
        assert fired == [("fast", 1.0), ("slow", 5.0)]

    def test_pooled_timer_facade_matches_timer_interface(self):
        simulator = Simulator()
        fired = []
        pool = DeadlinePool(simulator, fired.append)
        timer = pool.timer("k", 2.0)
        timer.start()
        assert pool._deadlines["k"] == pytest.approx(2.0)
        timer.stop()
        assert "k" not in pool._deadlines
        timer.start(1.0)
        simulator.run(until=5.0)
        assert fired == ["k"]


class TestFaultTimeResolution:
    def test_crash_leader_targets_the_leader_at_fault_time(self):
        """Scheduling a leader crash before an earlier leader change must
        crash the *new* leader, not the install-time one."""
        # First fault: the original leader (c0/r0) dies at 0.8; the cluster
        # elects c0/r1.  Second fault, scheduled up front: "crash the
        # leader at t=6" — by then that is c0/r1.
        deployment = small_deployment(
            seed=31,
            client_threads=2,
            schedule=[
                CrashEvent(at=0.8, replica="c0/r0"),
                CrashEvent(at=6.0, cluster=0, scope="leader"),
            ],
        )
        deployment.run(duration=7.0)
        survivor = deployment.replicas["c0/r2"]
        elected = survivor.leader
        assert elected != "c0/r0", "leader change never happened"
        assert deployment.replicas[elected].crashed or elected not in (
            "c0/r0",
            "c0/r1",
        ), "the fault-time leader must have been crashed"
        assert deployment.replicas["c0/r1"].crashed

    def test_partition_applies_to_replica_joining_after_install(self):
        deployment = small_deployment(
            seed=32,
            client_threads=2,
            schedule=[
                PartitionEvent(cluster_a=0, cluster_b=1, at=1.0, duration=10.0),
                JoinEvent(cluster=0, at=2.5, replica_id="late"),
            ],
        )
        deployment.run(duration=4.0)
        network = deployment.network
        assert deployment.replicas["late"].mode != "idle"
        assert network._should_drop("late", "c1/r0", None), (
            "a replica joining after the partition installed must be partitioned"
        )
        assert network._should_drop("c1/r0", "late", None)
        assert not network._should_drop("late", "c0/r0", None)


class TestThroughputTimeseriesPartialBucket:
    def test_last_partial_bucket_normalised_by_actual_width(self):
        metrics = MetricsCollector()
        # A steady 10 ops/sec for 2.5 seconds.
        for index in range(25):
            metrics.record_transaction(
                txn_id=f"t{index}", op="write", latency=0.01,
                completed_at=index * 0.1, client_id="c",
            )
        series = metrics.throughput_timeseries(bucket=1.0, until=2.5)
        assert [start for start, _ in series] == [0.0, 1.0, 2.0]
        full_buckets = [rate for _, rate in series[:-1]]
        assert all(rate == pytest.approx(10.0) for rate in full_buckets)
        # The 0.5 s tail holds 5 completions: 10 ops/sec, not 5.
        assert series[-1][1] == pytest.approx(10.0)

    def test_exact_multiple_keeps_full_width(self):
        metrics = MetricsCollector()
        for index in range(20):
            metrics.record_transaction(
                txn_id=f"t{index}", op="write", latency=0.01,
                completed_at=index * 0.1, client_id="c",
            )
        series = metrics.throughput_timeseries(bucket=1.0, until=2.0)
        assert len(series) == 2
        assert all(rate == pytest.approx(10.0) for _, rate in series)


class TestRunnerSurfacesWorkerCrashes:
    def _specs(self):
        good = ScenarioSpec(name="ok", clusters=[(4, "us-west1")], duration=0.2, seed=5)
        bad = ScenarioSpec(name="broken", clusters=[(0, "us-west1")], duration=0.2, seed=6)
        return [good, bad]

    def test_serial_grid_reports_crash_as_failed_row(self):
        rows = ScenarioRunner(workers=1).run(self._specs())
        assert len(rows) == 2
        assert rows[0].error is None and rows[0].operations > 0
        assert rows[1].error is not None
        assert rows[1].scenario == "broken" and rows[1].seed == 6
        assert "seed 6" in rows[1].error and "Traceback" in rows[1].error

    def test_pool_grid_reports_crash_without_dropping_other_seeds(self):
        rows = ScenarioRunner(workers=2, mp_context="fork").run(self._specs())
        assert len(rows) == 2
        assert rows[0].error is None and rows[0].operations > 0
        failed = rows[1]
        assert failed.error is not None and failed.seed == 6
        assert "Traceback" in failed.error

    def test_failed_rows_round_trip_through_json(self):
        import json

        rows = ScenarioRunner(workers=1).run(self._specs())
        from repro.harness.runner import ResultRow

        clone = ResultRow.from_dict(json.loads(rows[1].to_json()))
        assert clone.error == rows[1].error
