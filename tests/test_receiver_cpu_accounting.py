"""Receiver-side CPU accounting for deduplicated LocalShares.

LocalShares ship at envelope-only send cost (``LocalShare.verification_cost``
is 1): the certificate verifications are charged in-handler, via
:meth:`Network.charge_verification`, by the one receiver copy that actually
performs them.  These tests pin the charged-CPU delta so a regression in
either direction — duplicates paying full certificate price again, or the
surviving copy paying nothing — fails loudly.
"""

from __future__ import annotations

from repro.consensus.interface import commit_digest
from repro.core.brd import ready_digest
from repro.core.messages import LocalShare
from repro.core.types import OperationsBundle
from repro.harness.scenario import ScenarioSpec
from repro.net.crypto import Certificate, KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.network import SIGNATURE_VERIFY_COST, Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class Sink(Process):
    def on_message(self, sender, envelope):
        pass


def build_network():
    simulator = Simulator(seed=3)
    registry = KeyRegistry(seed=3)
    network = Network(simulator, LatencyModel(), registry)
    return simulator, network


# ---------------------------------------------------------------------- #
# The charging primitive itself
# ---------------------------------------------------------------------- #
class TestChargeVerification:
    def test_charge_advances_the_receive_watermark_per_signature(self):
        simulator, network = build_network()
        network.register(Sink("a", simulator), "us-west1")
        port = network.ports["a"]
        cost = SIGNATURE_VERIFY_COST
        network.charge_verification("a", 5)
        assert port.recv_free == 5 * cost
        network.charge_verification("a", 2)
        assert port.recv_free == 7 * cost

    def test_charge_scales_with_the_cpu_factor(self):
        simulator, network = build_network()
        network.register(Sink("a", simulator), "us-west1")
        network.ports["a"].cpu_factor = 3.0
        network.charge_verification("a", 4)
        expected = 4 * SIGNATURE_VERIFY_COST * 3.0
        assert network.ports["a"].recv_free == expected

    def test_idle_cpu_is_charged_from_now_not_from_zero(self):
        simulator, network = build_network()
        network.register(Sink("a", simulator), "us-west1")
        simulator.schedule(2.0, lambda: network.charge_verification("a", 1))
        simulator.run()
        assert network.ports["a"].recv_free == (
            2.0 + SIGNATURE_VERIFY_COST
        )

    def test_zero_signatures_and_unknown_port_are_noops(self):
        simulator, network = build_network()
        network.register(Sink("a", simulator), "us-west1")
        network.charge_verification("a", 0)
        network.charge_verification("ghost", 3)
        assert network.ports["a"].recv_free == 0.0


# ---------------------------------------------------------------------- #
# The LocalShare handler: who pays, and exactly once
# ---------------------------------------------------------------------- #
def _deployment():
    spec = ScenarioSpec(
        name="cpu-accounting", clusters=[(4, "us-west1"), (4, "us-west1")], seed=5
    )
    return spec.build()


def _remote_bundle(deployment, replica, remote_cluster=1):
    """A validly certified empty bundle from ``remote_cluster``."""
    registry = deployment.network.registry
    members = replica.members(remote_cluster)
    round_number = replica.round_number
    txn_cert = Certificate(commit_digest(remote_cluster, round_number, []))
    ready_cert = Certificate(
        ready_digest(remote_cluster, round_number, ()), kind="ready"
    )
    for member in members[:3]:  # 2f+1 of 4
        txn_cert.add(registry.sign(member, txn_cert.digest))
        ready_cert.add(registry.sign(member, ready_cert.digest))
    return OperationsBundle(
        cluster_id=remote_cluster,
        round_number=round_number,
        transactions=[],
        reconfigs=(),
        txn_certificate=txn_cert,
        recs_ready_certificate=ready_cert,
    )


class TestLocalShareCharging:
    def test_first_validated_share_pays_both_certificates(self):
        deployment = _deployment()
        replica = deployment.replicas["c0/r1"]
        bundle = _remote_bundle(deployment, replica)
        share = LocalShare(
            round_number=replica.round_number, cluster_id=1, bundle=bundle
        )
        port = deployment.network.ports[replica.process_id]
        before = port.recv_free
        replica.sharing.on_local_share("c0/r2", share)
        assert 1 in replica.operations
        charged = port.recv_free - before
        signatures = len(bundle.txn_certificate) + len(bundle.recs_ready_certificate)
        assert signatures == 6
        assert charged == signatures * SIGNATURE_VERIFY_COST

    def test_duplicate_share_is_deduped_before_any_charge(self):
        deployment = _deployment()
        replica = deployment.replicas["c0/r1"]
        bundle = _remote_bundle(deployment, replica)
        share = LocalShare(
            round_number=replica.round_number, cluster_id=1, bundle=bundle
        )
        port = deployment.network.ports[replica.process_id]
        replica.sharing.on_local_share("c0/r2", share)
        after_first = port.recv_free
        replica.sharing.on_local_share("c0/r3", share)  # one copy per Inter target
        assert port.recv_free == after_first

    def test_self_share_is_exempt(self):
        # An Inter receiver validated the bundle in ``GlobalSharing.on_inter``
        # (where the Inter's own verification_cost covered it) before sharing
        # to itself; the 0 ms loop-back must not bill the certificates twice.
        deployment = _deployment()
        replica = deployment.replicas["c0/r1"]
        bundle = _remote_bundle(deployment, replica)
        share = LocalShare(
            round_number=replica.round_number, cluster_id=1, bundle=bundle
        )
        port = deployment.network.ports[replica.process_id]
        before = port.recv_free
        replica.sharing.on_local_share(replica.process_id, share)
        assert 1 in replica.operations
        assert port.recv_free == before

    def test_share_send_cost_is_envelope_only(self):
        deployment = _deployment()
        replica = deployment.replicas["c0/r1"]
        bundle = _remote_bundle(deployment, replica)
        share = LocalShare(
            round_number=replica.round_number, cluster_id=1, bundle=bundle
        )
        assert share.verification_cost() == 1
