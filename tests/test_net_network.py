"""Tests for the simulated network: routing, authentication, faults, CPU."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.message import Message
from repro.net.network import BASE_PROCESSING, SIGNATURE_VERIFY_COST, Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


@dataclass
class Ping(Message):
    note: str = "hi"


class Recorder(Process):
    """A process that records everything delivered to it."""

    def __init__(self, process_id, simulator):
        super().__init__(process_id, simulator)
        self.received = []

    def on_message(self, sender, envelope):
        self.received.append((sender, envelope.payload, self.now))


def build_network(seed=9):
    simulator = Simulator(seed=seed)
    registry = KeyRegistry(seed=seed)
    latency = LatencyModel()
    network = Network(simulator, latency, registry)
    return simulator, network


class TestRouting:
    def test_point_to_point_delivery(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        AuthenticatedPerfectLink("a", network).send("b", Ping("one"))
        simulator.run()
        assert [p.note for _, p, _ in b.received] == ["one"]
        assert network.stats.messages_delivered == 1

    def test_broadcast_reaches_group_including_self(self):
        simulator, network = build_network()
        nodes = [Recorder(f"n{i}", simulator) for i in range(4)]
        for node in nodes:
            network.register(node, "us-west1")
        group = lambda: [n.process_id for n in nodes]
        AuthenticatedBestEffortBroadcast("n0", network, group).broadcast(Ping("all"))
        simulator.run()
        for node in nodes:
            assert len(node.received) == 1

    def test_unknown_destination_counts_as_dropped(self):
        simulator, network = build_network()
        a = Recorder("a", simulator)
        network.register(a, "us-west1")
        network.send("a", "ghost", Ping())
        simulator.run()
        assert network.stats.messages_dropped == 1

    def test_cross_region_slower_than_local(self):
        simulator, network = build_network()
        a, b, c = Recorder("a", simulator), Recorder("b", simulator), Recorder("c", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        network.register(c, "asia-south1")
        link = AuthenticatedPerfectLink("a", network)
        link.send("b", Ping())
        link.send("c", Ping())
        simulator.run()
        local_time = b.received[0][2]
        remote_time = c.received[0][2]
        assert remote_time > local_time * 10


class TestFaults:
    def test_crashed_receiver_gets_nothing(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        b.crash()
        AuthenticatedPerfectLink("a", network).send("b", Ping())
        simulator.run()
        assert b.received == []

    def test_crashed_sender_sends_nothing(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        a.crash()
        network.send("a", "b", Ping())
        simulator.run()
        assert b.received == []

    def test_partition_blocks_both_directions_until_removed(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        rule = network.add_drop_rule(lambda sender, destination, payload: {sender, destination} == {"a", "b"})
        link_a = AuthenticatedPerfectLink("a", network)
        link_b = AuthenticatedPerfectLink("b", network)
        link_a.send("b", Ping("lost"))
        link_b.send("a", Ping("lost"))
        simulator.run()
        assert a.received == [] and b.received == []
        network.remove_drop_rule(rule)
        link_a.send("b", Ping("found"))
        simulator.run()
        assert [p.note for _, p, _ in b.received] == ["found"]

    def test_isolate_single_process(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        network.add_drop_rule(lambda sender, destination, payload: "b" in (sender, destination))
        AuthenticatedPerfectLink("a", network).send("b", Ping())
        simulator.run()
        assert b.received == []


class TestAuthentication:
    def test_forged_envelope_dropped(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        message = Ping("forged")
        bad_signature = network.registry.forge("a", message.digest())
        network.send("a", "b", message, bad_signature)
        simulator.run()
        assert b.received == []

    @pytest.mark.parametrize("kind", ["forged", "foreign-lazy", "foreign-eager"])
    def test_bad_signature_dropped_on_send_and_on_multicast(self, kind):
        # Honest sends answer the link check from the minting memo and never
        # walk a digest; a signature handed in from elsewhere — forged, or
        # minted (lazily or not) by another trust domain — takes the full
        # token comparison on both entry points and is dropped.
        simulator, network = build_network()
        a, b, c = (Recorder(name, simulator) for name in ("a", "b", "c"))
        for node in (a, b, c):
            network.register(node, "us-west1")
        message = Ping("bad")
        foreign = KeyRegistry(seed=1234)
        foreign.register("a")
        signature = {
            "forged": lambda: network.registry.forge("a", message.digest()),
            "foreign-lazy": lambda: foreign.link_seal("a").sign(message),
            "foreign-eager": lambda: foreign.sign("a", message.digest()),
        }[kind]()
        network.send("a", "b", message, signature)
        network.multicast("a", ["b", "c"], message, signature)
        simulator.run()
        assert b.received == [] and c.received == []
        assert network.stats.messages_dropped == 3
        link = AuthenticatedPerfectLink("a", network)
        link.send("b", Ping("good"))
        link.send_many(["b", "c"], Ping("good"))
        simulator.run()
        assert [p.note for _, p, _ in b.received] == ["good", "good"]
        assert [p.note for _, p, _ in c.received] == ["good"]
        assert network.registry.counters()["envelope_digests_read"] == 0

    def test_valid_envelope_delivered_with_signature(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        AuthenticatedPerfectLink("a", network).send("b", Ping("ok"))
        simulator.run()
        assert len(b.received) == 1


class TestCpuModel:
    def test_cpu_queue_serializes_processing(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        link = AuthenticatedPerfectLink("a", network)
        for _ in range(50):
            link.send("b", Ping())
        simulator.run()
        assert len(b.received) == 50
        arrival_times = [t for _, _, t in b.received]
        # With a serial CPU queue the last message finishes noticeably later
        # than the first (at least 50 * base+verify costs apart).
        assert arrival_times[-1] - arrival_times[0] > 40 * (
            BASE_PROCESSING + SIGNATURE_VERIFY_COST
        )

    def test_stats_by_type(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        AuthenticatedPerfectLink("a", network).send("b", Ping())
        simulator.run()
        assert network.stats.by_type["Ping"] == 1
        snapshot = network.stats.snapshot()
        assert snapshot["messages_sent"] == 1
