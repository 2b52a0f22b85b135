"""Tests for the fused delivery pipeline: event budget, 0 ms loop-back,
microtask ordering, and fixed-seed determinism.

These pin the *structural* wins of the pipeline refactor:

* at most one kernel event per delivered message in an end-to-end run
  (the old ``net:deliver`` → ``net:cpu`` chain cost two),
* self-addressed messages are handed over at the same virtual instant with
  no latency draw, no drop-rule evaluation, and no kernel event,
* a cross-region message takes its receiver-CPU slot when it *arrives*, so
  it never holds up LAN traffic scheduled while it was on the wire (two
  kernel events; same-region messages keep the single fused one),
* same seed ⇒ byte-identical :class:`~repro.harness.runner.ResultRow`.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.harness.runner import run_scenario
from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.events import LABEL
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from tests.repin_goldens import e0_spec


@dataclass
class Note(Message):
    text: str = "hi"


class Recorder(Process):
    def __init__(self, process_id, simulator):
        super().__init__(process_id, simulator)
        self.received = []

    def on_message(self, sender, envelope):
        self.received.append((sender, envelope.payload, self.now))


def build_network(seed=3):
    simulator = Simulator(seed=seed)
    registry = KeyRegistry(seed=seed)
    network = Network(simulator, LatencyModel(), registry)
    return simulator, network


# ---------------------------------------------------------------------- #
# Kernel event budget: <= 1 event per delivered message, end to end
# ---------------------------------------------------------------------- #
class TestEventBudget:
    def test_e0_run_spends_at_most_one_kernel_event_per_delivered_message(self):
        spec = e0_spec()
        deployment = spec.build()
        deployment.run(duration=spec.duration, warmup=spec.warmup)
        stats = deployment.network.stats
        delivered = stats.messages_delivered + stats.loopback_messages
        events = deployment.simulator.events_processed
        assert delivered > 10_000, "scenario must exercise real traffic"
        assert events <= delivered, (
            f"{events} kernel events for {delivered} delivered messages "
            f"({events / delivered:.2f} per message); the fused pipeline "
            "guarantees at most one"
        )

    def test_wire_message_costs_exactly_one_kernel_event(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "us-west1")
        AuthenticatedPerfectLink("a", network).send("b", Note("one"))
        simulator.run()
        assert len(b.received) == 1
        assert simulator.events_processed == 1

    def test_loopback_costs_zero_kernel_events(self):
        simulator, network = build_network()
        a = Recorder("a", simulator)
        network.register(a, "us-west1")
        AuthenticatedPerfectLink("a", network).send("a", Note("self"))
        simulator.run()
        assert len(a.received) == 1
        assert simulator.events_processed == 0


# ---------------------------------------------------------------------- #
# Cross-region messages take their receiver slot on arrival
# ---------------------------------------------------------------------- #
class TestNoHeadOfLineBlocking:
    """``far`` is a WAN hop (~107 ms one way) from ``r``; ``near`` shares
    ``r``'s region.  A WAN envelope on the wire must not delay LAN traffic."""

    WAN_SENT, LAN_SENT = 0.05, 0.12  # the WAN envelope lands at ~0.157

    def _run(self, owners=None):
        simulator, network = build_network()
        nodes = {name: Recorder(name, simulator) for name in ("far", "near", "r")}
        if owners:
            network.owners = owners  # ports snapshot their owner at registration
        network.register(nodes["far"], "asia-south1")
        network.register(nodes["near"], "us-west1")
        network.register(nodes["r"], "us-west1")
        if owners:
            # A deployment's wiring: far's cluster differs from r's, so the
            # far -> r envelope rides the cross-cluster mailbox and is
            # injected at the barrier (0.0985) between its send and arrival.
            floor = min(floor for _, floor in network.latency_model.cross_group_floor_schedule(owners))
            network.next_barrier = lambda time: (int(time / floor) + 1) * floor
        far, near = (AuthenticatedPerfectLink(name, network) for name in ("far", "near"))
        simulator.schedule_at(self.WAN_SENT, lambda: far.send("r", Note("wan")))
        simulator.schedule_at(self.LAN_SENT, lambda: near.send("r", Note("lan")))
        simulator.run()
        return simulator, {payload.text: time for _, payload, time in nodes["r"].received}

    def _assert_lan_is_not_blocked(self, delivered):
        assert delivered["lan"] - self.LAN_SENT < 0.002, "LAN message waited for the WAN envelope"
        assert delivered["wan"] - self.WAN_SENT > 0.09
        assert delivered["lan"] < delivered["wan"]

    def test_lan_message_overtakes_a_wan_envelope_in_flight(self):
        _, delivered = self._run()
        self._assert_lan_is_not_blocked(delivered)

    def test_the_same_holds_through_the_cross_cluster_mailbox(self):
        _, delivered = self._run(owners={"far": 1, "near": 0, "r": 0})
        self._assert_lan_is_not_blocked(delivered)

    def test_one_kernel_event_per_same_region_message_and_two_per_cross_region(self):
        simulator, network = build_network()
        names = ("far", "near", "r")
        nodes = {name: Recorder(name, simulator) for name in names}
        network.register(nodes["far"], "asia-south1")
        for name in ("near", "r"):
            network.register(nodes[name], "us-west1")
        group = tuple(sorted(names))
        # r hears a LAN and a WAN copy of every burst, interleaved; bursts are
        # spaced wider than the WAN jitter so each link stays in send order.
        for step in range(20):
            for name in ("far", "near"):
                link = AuthenticatedBestEffortBroadcast(name, network, lambda: group)
                simulator.schedule_at(0.03 * step, lambda link=link, step=step: link.broadcast(Note(f"{step}")))
        simulator.run()
        # Each broadcast: one loop-back (free); far's two copies cross
        # regions, near's go one to r (LAN) and one to far (WAN).
        broadcasts, lan, wan = 40, 20 * 1, 20 * 3
        assert network.stats.messages_delivered == lan + wan
        assert simulator.events_processed - broadcasts == lan + 2 * wan
        # Pop order == fire order: had the port FIFO handed an envelope over
        # at another's slot, a WAN copy would show up in LAN time or a LAN
        # copy in WAN time; per link, copies also stay in send order.
        received = nodes["r"].received
        assert not network.ports["r"].queue
        for sender, low, high in (("near", 0.0, 0.002), ("far", 0.09, 0.13)):
            copies = [(int(payload.text), time) for who, payload, time in received if who == sender]
            assert [step for step, _ in copies] == list(range(20))
            assert all(low < time - 0.03 * step < high for step, time in copies)

    def test_port_deregistered_while_the_envelope_is_in_flight_drops_it(self):
        simulator, network = build_network()
        far, r = Recorder("far", simulator), Recorder("r", simulator)
        network.register(far, "asia-south1")
        network.register(r, "us-west1")
        AuthenticatedPerfectLink("far", network).send("r", Note("wan"))
        simulator.schedule_at(0.05, lambda: network.deregister("r"))
        simulator.run()
        assert r.received == []
        assert network.stats.messages_dropped == 1
        assert simulator.events_processed == 2  # the arrival and the deregistration


# ---------------------------------------------------------------------- #
# 0 ms loop-back semantics
# ---------------------------------------------------------------------- #
class TestLoopback:
    def test_self_send_is_delivered_at_the_same_virtual_instant(self):
        simulator, network = build_network()
        a = Recorder("a", simulator)
        network.register(a, "us-west1")
        link = AuthenticatedPerfectLink("a", network)
        simulator.schedule(1.5, lambda: link.send("a", Note("self")))
        simulator.run()
        assert [(s, t) for s, _, t in a.received] == [("a", 1.5)]

    def test_self_send_bypasses_drop_rules(self):
        simulator, network = build_network()
        a = Recorder("a", simulator)
        network.register(a, "us-west1")
        # Would drop any wire traffic to or from a.
        network.add_drop_rule(lambda sender, destination, payload: "a" in (sender, destination))
        AuthenticatedPerfectLink("a", network).send("a", Note("self"))
        simulator.run()
        assert len(a.received) == 1
        assert network.stats.messages_dropped == 0
        assert network.stats.loopback_messages == 1

    def test_self_send_never_consumes_the_latency_stream(self):
        """Two identical runs — one with extra self-sends — must produce
        identical wire delivery times, proving loop-back draws no jitter."""

        def wire_delivery_time(with_self_sends):
            simulator, network = build_network(seed=11)
            a, b = Recorder("a", simulator), Recorder("b", simulator)
            network.register(a, "us-west1")
            network.register(b, "us-west1")
            link = AuthenticatedPerfectLink("a", network)
            if with_self_sends:
                for _ in range(5):
                    link.send("a", Note("self"))
            link.send("b", Note("wire"))
            simulator.run()
            return b.received[0][2]

        assert wire_delivery_time(False) == wire_delivery_time(True)

    def test_self_sends_are_not_counted_as_wire_traffic(self):
        simulator, network = build_network()
        nodes = [Recorder(f"n{i}", simulator) for i in range(4)]
        for node in nodes:
            network.register(node, "us-west1")
        group = tuple(sorted(n.process_id for n in nodes))
        AuthenticatedBestEffortBroadcast("n0", network, lambda: group).broadcast(Note("all"))
        simulator.run()
        assert network.stats.messages_sent == 3  # the three wire copies
        assert network.stats.loopback_messages == 1
        assert network.stats.messages_delivered == 3
        assert network.stats.by_type["Note"] == 4  # census counts every copy
        for node in nodes:
            assert len(node.received) == 1

    def test_loopback_to_a_just_crashed_sender_is_dropped(self):
        """A process that self-sends and crashes within the same event must
        not hear from itself: the microtask sees the crash."""
        simulator, network = build_network()
        a = Recorder("a", simulator)
        network.register(a, "us-west1")
        link = AuthenticatedPerfectLink("a", network)

        def send_then_crash():
            link.send("a", Note("ghost"))
            a.crash()

        simulator.schedule(0.5, send_then_crash)
        simulator.run()
        assert a.received == []
        assert network.stats.messages_dropped == 1
        assert network.stats.loopback_messages == 0

    def test_loopback_runs_before_the_next_heap_event(self):
        """Microtasks jump ahead of already-queued events at the same time."""
        simulator, network = build_network()
        a = Recorder("a", simulator)
        network.register(a, "us-west1")
        link = AuthenticatedPerfectLink("a", network)
        order = []

        def sender():
            link.send("a", Note("self"))
            order.append("sent")

        simulator.schedule(1.0, sender)
        simulator.schedule(1.0, lambda: order.append("later-event"))
        original = a.on_message

        def record(sender_id, envelope):
            order.append("delivered")
            original(sender_id, envelope)

        a.on_message = record
        simulator.run()
        assert order == ["sent", "delivered", "later-event"]


# ---------------------------------------------------------------------- #
# Link-latency aggregates exclude loop-back by construction
# ---------------------------------------------------------------------- #
class TestLinkLatencyStats:
    def test_mean_link_latency_covers_wire_messages_only(self):
        simulator, network = build_network()
        a, b = Recorder("a", simulator), Recorder("b", simulator)
        network.register(a, "us-west1")
        network.register(b, "asia-south1")
        link = AuthenticatedPerfectLink("a", network)
        for _ in range(10):
            link.send("a", Note("self"))  # 0 ms, must not dilute the mean
        link.send("b", Note("wire"))
        simulator.run()
        stats = network.stats
        assert stats.link_latency_count == 1
        # One us-west1 -> asia-south1 hop: ~107 ms one way.
        assert stats.mean_link_latency() > 0.05


# ---------------------------------------------------------------------- #
# One delivery rule: a fan-out is exactly its point-to-point sends
# ---------------------------------------------------------------------- #
class TestOneSendRule:
    """``multicast(s, [d1..dn], m)`` and ``for d: send(s, d, m)`` on twin
    networks of one seed leave identical worlds behind, whatever kind of link
    each destination sits on."""

    #: name -> (region, owner cluster); ``ghost`` is never registered.
    WORLD = {
        "s": ("us-west1", 0),  # the sender: its own copy is the 0 ms loop-back
        "w": ("us-west1", 0),  # arms the mailbox flush before the comparison
        "lan": ("us-west1", 0),  # same region: fused, one kernel event
        "wan": ("asia-south1", 0),  # cross region: slot taken on arrival
        "blocked": ("us-west1", 0),  # hit by a drop rule
        "xlan": ("us-west1", 1),  # other owner cluster: mailbox, fused verdict
        "xwan": ("europe-west3", 1),  # other owner cluster: mailbox, deferred
    }
    DESTINATIONS = ("lan", "wan", "s", "xlan", "blocked", "ghost", "xwan", "lan")

    def _world(self):
        simulator, network = build_network(seed=5)
        owners = {name: owner for name, (_, owner) in self.WORLD.items()}
        network.owners = owners
        nodes = {name: Recorder(name, simulator) for name in self.WORLD}
        for name, (region, _) in self.WORLD.items():
            network.register(nodes[name], region)
        floor = min(floor for _, floor in network.latency_model.cross_group_floor_schedule(owners))
        network.next_barrier = lambda time: (int(time / floor) + 1) * floor
        network.add_drop_rule(lambda sender, destination, payload: destination == "blocked")
        # With a flush already pending — as it is for all but the first
        # mailbox entry of a barrier window — no flush event is scheduled
        # mid-fan-out, so kernel sequence numbers are comparable one to one.
        network.send("w", "xlan", Note("arm"))
        return simulator, network, nodes

    def _outcome(self, fan_out, forged=False, crashed=False):
        simulator, network, nodes = self._world()
        registry = KeyRegistry(seed=99) if forged else network.registry
        registry.register("s")
        nodes["s"].crashed = crashed
        for text in ("first", "second"):  # the second finds the link engine busy
            message = Note(text)
            fan_out(network, self.DESTINATIONS, message, registry.link_seal("s").sign(message))
        queue = simulator._queue
        scheduled = sorted(event[:3] + [event[LABEL]] for event in queue._heap)
        snapshot = {
            "scheduled": scheduled,
            "next_sequence": queue._sequence,
            "live": len(queue),
            "watermarks": {n: (p.send_free, p.recv_free, p.xseq) for n, p in network.ports.items()},
            "next_jitter_draw": network.ports["s"].lat_random(),
            "outbox": [entry[:4] + (entry[5],) for entry in network.outbox],
        }
        simulator.run()
        stats = network.stats
        snapshot["stats"] = (stats.snapshot(), stats.link_latency, dict(stats.by_type))
        snapshot["delivered"] = {
            name: [(payload.text, time) for _, payload, time in node.received]
            for name, node in nodes.items()
        }
        return snapshot

    @staticmethod
    def _multicast(network, destinations, message, signature):
        network.multicast("s", destinations, message, signature)

    @staticmethod
    def _sends(network, destinations, message, signature):
        for destination in destinations:
            network.send("s", destination, message, signature)

    @pytest.mark.parametrize(
        "variant",
        [{}, {"forged": True}, {"crashed": True}],
        ids=["cpu_model", "forged_signature", "crashed_sender"],
    )
    def test_fan_out_equals_its_point_to_point_sends(self, variant):
        fanned = self._outcome(self._multicast, **variant)
        assert fanned == self._outcome(self._sends, **variant)
        # Guard the comparison against being vacuous.
        wire = {name for name, copies in fanned["delivered"].items() if copies} - {"xlan"}
        if variant.get("crashed"):
            assert not wire and fanned["stats"][0]["messages_sent"] == 1  # the arming send
        elif variant.get("forged"):
            assert wire == {"s"} and fanned["stats"][0]["messages_dropped"] == 14
        else:
            assert wire == {"s", "lan", "wan", "xwan"}
            assert sorted(text for text, _ in fanned["delivered"]["lan"]) == ["first"] * 2 + ["second"] * 2
            assert fanned["stats"][0]["messages_dropped"] == 4  # blocked and ghost, twice

    def test_a_fan_out_sums_its_latencies_like_its_point_to_point_sends(self):
        # Float addition rounds at each step, so the sender's running total
        # must take the same adds in the same order whichever call carried
        # them -- after every fan-out, not only once the sums are complete.
        twins = [self._world()[1] for _ in range(2)]
        steps = []
        for step in range(200):
            destinations = self.DESTINATIONS[step % 3 :]
            message = Note(f"n{step}")
            for network, fan_out in zip(twins, (self._multicast, self._sends)):
                fan_out(network, destinations, message, network.registry.link_seal("s").sign(message))
            steps.append([list(network.stats.link_latency["s"]) for network in twins])
        assert [step for step, (fanned, sent) in enumerate(steps) if fanned != sent] == []
        # 67 fan-outs with 5 wire copies that draw a latency, 67 with 4, 66 with 3.
        assert steps[-1][0][1] == 801


# ---------------------------------------------------------------------- #
# Fixed-seed determinism of full scenario rows
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_produces_identical_result_rows(self):
        spec = e0_spec().with_seed(3)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.to_json() == second.to_json()
