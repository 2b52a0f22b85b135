"""Tests for the local ordering engines (HotStuff-like and BFT-SMaRt-like)."""

from __future__ import annotations

import pytest

from repro.consensus.bftsmart import BftSmartEngine, BsAccept, BsViewState, BsWrite
from repro.consensus.hotstuff import HotStuffEngine, HsNewView, HsVote
from repro.consensus.hotstuff_chained import ChainedHotStuffEngine, ChNewView, ChVote
from repro.consensus.interface import commit_digest
from repro.consensus.leader_election import ElectionComplaint, LeaderElection
from repro.consensus.registry import ENGINES, make_engine
from repro.errors import ConfigurationError
from repro.net.crypto import KeyRegistry
from tests import helpers
from repro.net.latency import LatencyModel
from repro.net.links import AuthenticatedPerfectLink
from repro.net.message import payload_digest
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class EngineHost(Process):
    """A process hosting one consensus engine instance."""

    def __init__(self, process_id, simulator, network, members, engine_cls, timeout=1.0):
        super().__init__(process_id, simulator)
        self.members = members
        self.decisions = []
        self.complaints = []
        self.transfers = []
        network.register(self, "us-west1")
        faults = (len(members) - 1) // 3
        self.engine = engine_cls(
            process_id,
            0,
            helpers.members_fn(members),
            lambda: faults,
            network,
            simulator,
            timeout,
            on_deliver=self.decisions.append,
            on_complain=self.complaints.append,
            fetch_value=lambda seq: [f"fallback-{seq}"],
            transfer_state=self.transfers.append,
        )

    def on_message(self, sender, envelope):
        self.engine.on_message(sender, envelope)


def build_cluster(engine_cls, size=4, seed=3, timeout=1.0):
    simulator = Simulator(seed=seed)
    registry = KeyRegistry(seed=seed)
    network = Network(simulator, LatencyModel(), registry)
    members = [f"p{i}" for i in range(size)]
    hosts = [EngineHost(m, simulator, network, members, engine_cls, timeout) for m in members]
    return simulator, network, hosts


#: Wire name of each engine's leader proposal (``NetworkStats.by_type`` key).
PROPOSAL_TYPE = {
    HotStuffEngine: "HsProposal",
    ChainedHotStuffEngine: "ChProposal",
    BftSmartEngine: "BsPropose",
}

#: Each engine's view-change / catch-up report.
REPORT_TYPE = {
    HotStuffEngine: HsNewView,
    ChainedHotStuffEngine: ChNewView,
    BftSmartEngine: BsViewState,
}


def quorum_votes(engine_cls, value, commit_signature):
    """Every vote one voter casts to carry ``value`` through sequence 1, view 0."""
    common = dict(cluster_id=0, sequence=1, view=0, value_digest=payload_digest(value))
    if engine_cls is BftSmartEngine:
        return [BsWrite(**common), BsAccept(**common, commit_signature=commit_signature)]
    if engine_cls is ChainedHotStuffEngine:
        vote_cls, rounds = ChVote, ("prepare", "commit")
    else:
        vote_cls, rounds = HsVote, ("prepare", "precommit", "commit")
    return [
        vote_cls(
            **common, phase=phase, commit_signature=commit_signature if phase == "commit" else None
        )
        for phase in rounds
    ]


@pytest.mark.parametrize("engine_cls", [HotStuffEngine, ChainedHotStuffEngine, BftSmartEngine])
class TestEngines:
    def test_all_replicas_deliver_leaders_proposal(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls)
        value = ["tx1", "tx2", "tx3"]
        hosts[0].engine.propose(1, value)
        simulator.run(until=5.0)
        for host in hosts:
            assert len(host.decisions) == 1
            assert host.decisions[0].value == value
            assert host.decisions[0].sequence == 1

    def test_certificate_has_quorum_of_valid_commit_signatures(self, engine_cls):
        simulator, network, hosts = build_cluster(engine_cls)
        value = ["tx"]
        hosts[0].engine.propose(1, value)
        simulator.run(until=5.0)
        decision = hosts[1].decisions[0]
        members = [h.process_id for h in hosts]
        assert network.registry.certificate_valid(
            decision.certificate, members, threshold=3, digest=commit_digest(0, 1, value)
        )

    def test_non_leader_proposal_is_ignored(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls)
        hosts[2].engine.propose(1, ["rogue"])
        simulator.run(until=3.0)
        assert all(not host.decisions for host in hosts)

    def test_consecutive_sequences_deliver_independently(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls)
        hosts[0].engine.propose(1, ["a"])
        hosts[0].engine.propose(2, ["b"])
        simulator.run(until=5.0)
        for host in hosts:
            values = {d.sequence: d.value for d in host.decisions}
            assert values == {1: ["a"], 2: ["b"]}

    def test_timeout_raises_complaint_when_leader_silent(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls, timeout=0.5)
        for host in hosts[1:]:
            host.engine.start_instance(1)
        simulator.run(until=2.0)
        assert all(host.complaints for host in hosts[1:])

    def test_leader_change_reproposes_and_delivers(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls, timeout=0.5)
        # The initial leader (p0) is crashed before proposing.
        hosts[0].crash()
        for host in hosts[1:]:
            host.engine.start_instance(1)

        def change_leader():
            for host in hosts[1:]:
                host.engine.new_leader("p1", 1)

        simulator.schedule(1.0, change_leader)
        simulator.run(until=6.0)
        for host in hosts[1:]:
            assert len(host.decisions) == 1
            assert host.decisions[0].value == ["fallback-1"]

    def test_decisions_identical_across_replicas(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls, size=7)
        hosts[0].engine.propose(1, ["x", "y"])
        simulator.run(until=5.0)
        digests = {repr(h.decisions[0].value) for h in hosts}
        assert len(digests) == 1

    def test_non_member_votes_never_count_toward_a_quorum(self, engine_cls):
        simulator, network, hosts = build_cluster(engine_cls)
        for host in hosts[1:]:
            host.crash()  # the followers are cut off: no member but the leader votes
        value = ["v"]
        hosts[0].engine.propose(1, value)
        simulator.run(until=0.1)
        # Three processes the key registry knows, but who are not cluster
        # members, cast a full quorum's worth of correctly signed votes.
        sent_before = sum(network.stats.by_type.values())
        injected = 0
        for index in range(3):
            outsider = Process(f"x{index}", simulator)
            network.register(outsider, "us-west1")
            signature = network.registry.sign(outsider.process_id, commit_digest(0, 1, value))
            link = AuthenticatedPerfectLink(outsider.process_id, network)
            for vote in quorum_votes(engine_cls, value, signature):
                link.send("p0", vote)
                injected += 1
        simulator.run(until=0.5)  # well inside the 1 s watchdog
        assert not hosts[0].decisions, "decided on a certificate no member signed"
        # The leader did not react at all: no phase/lock/accept/decide left it.
        assert sum(network.stats.by_type.values()) - sent_before == injected

    def test_second_propose_in_a_view_emits_no_second_proposal(self, engine_cls):
        simulator, network, hosts = build_cluster(engine_cls)
        hosts[0].engine.propose(1, ["first"])
        sent = dict(network.stats.by_type)
        hosts[0].engine.propose(1, ["second"])  # e.g. the batch timer racing a re-proposal
        assert dict(network.stats.by_type) == sent
        simulator.run(until=5.0)
        assert network.stats.by_type[PROPOSAL_TYPE[engine_cls]] == len(hosts)  # one broadcast
        for host in hosts:
            assert [d.value for d in host.decisions] == [["first"]]

    def test_resent_view_change_report_counts_once(self, engine_cls):
        simulator, network, hosts = build_cluster(engine_cls, timeout=5.0)
        hosts[0].crash()
        for host in hosts[1:]:
            host.engine.start_instance(1)
        # Only p1 (the new leader) and p2 install view 1: two reports, one
        # short of the quorum of three.
        for host in hosts[1:3]:
            host.engine.new_leader("p1", 1)
        reporter = hosts[2].engine
        for _ in range(reporter.quorum()):
            reporter.apl.send("p1", reporter._make_report(1))
        simulator.run(until=1.0)
        assert PROPOSAL_TYPE[engine_cls] not in network.stats.by_type
        # A third *distinct* reporter completes the quorum and the new
        # leader re-proposes.
        hosts[3].engine.new_leader("p1", 1)
        simulator.run(until=4.0)
        assert network.stats.by_type[PROPOSAL_TYPE[engine_cls]] == len(hosts)
        for host in hosts[1:]:
            assert [d.value for d in host.decisions] == [["fallback-1"]]

    def test_laggard_catches_up_from_decided_peers(self, engine_cls):
        simulator, network, hosts = build_cluster(engine_cls, timeout=0.5)
        laggard = hosts[3]
        # p3 misses the proposal, the votes and the decide.
        cut = network.add_drop_rule(lambda sender, destination, payload: "p3" in (sender, destination))
        laggard.engine.start_instance(1)
        value = ["decided-without-p3"]
        hosts[0].engine.propose(1, value)
        simulator.run(until=0.3)
        assert all(len(host.decisions) == 1 for host in hosts[:3])
        assert not laggard.decisions
        network.remove_drop_rule(cut)
        # A reply whose certificate does not cover the value it carries is
        # rejected: the genuine certificate cannot vouch for another batch.
        forged = hosts[1].engine._make_catchup_reply(hosts[1].decisions[0])
        forged.value = ["forged"]
        hosts[1].engine.apl.send("p3", forged)
        simulator.run(until=0.45)
        assert not laggard.decisions
        # At 0.5 s the watchdog complains and broadcasts p3's report; every
        # decided peer answers with the value and its commit certificate.
        simulator.run(until=2.0)
        assert laggard.complaints
        assert [d.value for d in laggard.decisions] == [value]
        assert network.registry.certificate_valid(
            laggard.decisions[0].certificate,
            [h.process_id for h in hosts],
            threshold=3,
            digest=commit_digest(0, 1, value),
        )

    def test_messages_for_a_retired_sequence_touch_no_table(self, engine_cls):
        simulator, network, hosts = build_cluster(engine_cls)
        value = ["retired"]
        hosts[0].engine.propose(1, value)
        hosts[0].engine.propose(2, ["kept"])
        simulator.run(until=5.0)
        assert all(len(host.decisions) == 2 for host in hosts)
        leader = hosts[0].engine
        proposal = leader._make_proposal(1, value)
        for host in hosts:
            host.engine.retire(1)

        def tables():
            return [
                {name: set(getattr(host.engine, name)) for name in engine_cls.SEQUENCE_TABLES}
                for host in hosts
            ]

        before = tables()
        for table in before:
            for name, keys in table.items():
                assert all((key[0] if isinstance(key, tuple) else key) > 1 for key in keys), name
        sent_before = sum(network.stats.by_type.values())
        injected = 0
        # The leader's proposal again, every member's votes for it, and a
        # laggard's report: without the drop on arrival, the proposal would
        # re-create the instance and draw a second vote on an executed sequence.
        for host in hosts[1:]:
            leader.apl.send(host.process_id, proposal)
            signature = network.registry.sign(host.process_id, commit_digest(0, 1, value))
            votes = quorum_votes(engine_cls, value, signature)
            for vote in votes:
                host.engine.apl.send("p0", vote)
            injected += 1 + len(votes)
        hosts[3].engine.apl.send("p1", REPORT_TYPE[engine_cls](cluster_id=0, sequence=1, view=0))
        injected += 1
        simulator.run(until=6.0)
        assert tables() == before
        assert sum(network.stats.by_type.values()) - sent_before == injected  # no vote, no reply
        # The report is answered by the host's state transfer, not a decision.
        assert [host.transfers for host in hosts] == [[], ["p3"], [], []]

    def test_retire_only_raises_the_watermark(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls)
        hosts[0].engine.propose(1, ["a"])
        simulator.run(until=5.0)
        engine = hosts[1].engine
        engine.retire(1)
        engine.retire(0)
        assert engine.watermark == 1 and not engine.decisions


class TestRegistry:
    def test_known_engines(self):
        assert set(ENGINES) >= {"hotstuff", "hotstuff_chained", "bftsmart"}

    def test_make_engine_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_engine("raft")


class TestLeaderElection:
    def _cluster(self, size=4, seed=5):
        simulator = Simulator(seed=seed)
        registry = KeyRegistry(seed=seed)
        network = Network(simulator, LatencyModel(), registry)
        members = [f"p{i}" for i in range(size)]
        elected = {m: [] for m in members}

        class Host(Process):
            def __init__(self, pid):
                super().__init__(pid, simulator)
                network.register(self, "us-west1")
                self.le = LeaderElection(
                    pid, 0, helpers.members_fn(members), lambda: (size - 1) // 3, network,
                    on_new_leader=lambda leader, ts, p=pid: elected[p].append((leader, ts)),
                )

            def on_message(self, sender, envelope):
                self.le.on_message(sender, envelope)

        hosts = [Host(m) for m in members]
        return simulator, hosts, elected

    def test_quorum_of_complaints_rotates_leader_everywhere(self):
        simulator, hosts, elected = self._cluster()
        for host in hosts[1:]:
            host.le.complain()
        simulator.run(until=2.0)
        for host in hosts:
            assert elected[host.process_id], f"{host.process_id} did not elect"
            leader, ts = elected[host.process_id][0]
            assert ts == 1
            assert leader == sorted(h.process_id for h in hosts)[1]

    def test_single_complaint_is_not_enough(self):
        simulator, hosts, elected = self._cluster()
        hosts[1].le.complain()
        simulator.run(until=2.0)
        assert all(not events for events in elected.values())

    def test_amplification_from_f_plus_one(self):
        simulator, hosts, elected = self._cluster(size=4)
        # f = 1, so two explicit complainers are enough: the rest amplify.
        hosts[1].le.complain()
        hosts[2].le.complain()
        simulator.run(until=2.0)
        assert all(elected[h.process_id] for h in hosts)

    def test_next_leader_is_local_and_immediate(self):
        simulator, hosts, elected = self._cluster()
        hosts[0].le.next_leader()
        assert elected["p0"] == [(sorted(h.process_id for h in hosts)[1], 1)]
        assert elected["p1"] == []

    def test_stale_timestamp_complaints_ignored(self):
        simulator, hosts, elected = self._cluster()
        stale = ElectionComplaint(cluster_id=0, ts=5)
        hosts[0].le.abeb.broadcast(stale)
        simulator.run(until=1.0)
        assert all(not events for events in elected.values())
