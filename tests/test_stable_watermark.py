"""Constant-space rounds: the stable watermark and the state transfer behind it.

Every round a BRD delivery proves that ``2f+1`` members opened it, so the
rounds two behind are retired at every replica (``LocalOrdering.retire``,
``TotalOrderBroadcast.retire``).  A member left behind what its peers keep
is answered with their state (``CurrState``) and adopts it from ``f+1`` of
them.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.brd import ByzantineReliableDissemination
from repro.core.messages import Inter, LocalShare
from tests.helpers import small_deployment

ENGINES = ("hotstuff", "hotstuff_chained", "bftsmart")


def _table_sizes(replica):
    """Size of every container a replica's components and engine hold.

    The execution ledger and the metrics samples grow by design and are
    not held here: the store and the collector are left out.
    """
    owners = {
        "replica": replica,
        "front": replica.front,
        "ordering": replica.ordering,
        "tob": replica.ordering.tob,
        "sharing": replica.sharing,
        "execution": replica.execution,
        "requester": replica.requester,
        "collector": replica.collector,
        "rlc": replica.rlc,
        "le": replica.le,
    }
    sizes = {}
    for owner, component in owners.items():
        for name, value in vars(component).items():
            if isinstance(value, (dict, set, list, tuple, deque)):
                sizes[f"{owner}.{name}"] = len(value)
    return sizes


@pytest.mark.parametrize("engine", ENGINES)
def test_per_round_tables_do_not_grow_with_the_run(engine):
    """T and 4T hold the same tables, within the retired window."""
    # Hotstuff's leader keeps three vote certificates per sequence, and at
    # most RETIRE_STRIDE + 2 = 10 sequences are kept between two sweeps.
    slack = 30
    sizes = {}
    for duration in (1.0, 4.0):
        deployment = small_deployment(engine=engine, seed=11)
        deployment.run(duration=duration)
        leader = deployment.leader_of(0)
        follower = next(r for r in deployment.cluster_replicas(0) if r is not leader)
        sizes[duration] = (_table_sizes(leader), _table_sizes(follower), leader.round_number)
    short, long = sizes[1.0], sizes[4.0]
    assert long[2] > 3 * short[2], "the long run must execute about four times the rounds"
    for role, before, after in (("leader", short[0], long[0]), ("follower", short[1], long[1])):
        grown = {name: (before[name], size) for name, size in after.items() if size > before[name] + slack}
        assert not grown, f"{engine} {role}: tables grow with the run: {grown}"


@pytest.mark.parametrize("engine", ENGINES)
def test_a_member_cut_off_for_rounds_executes_again(engine):
    """A follower that misses a dozen rounds adopts its peers' state."""
    deployment = small_deployment(engine=engine, seed=11)
    network, simulator = deployment.network, deployment.simulator
    laggard = deployment.replicas["c0/r3"]
    cut = lambda sender, destination, payload: laggard.process_id in (sender, destination)  # noqa: E731
    marks = {}

    def heal():
        network.remove_drop_rule(cut)
        marks["healed"] = (laggard.round_number, max(r.round_number for r in deployment.replicas.values()))

    simulator.schedule(0.5, lambda: network.add_drop_rule(cut))
    simulator.schedule(0.8, heal)
    deployment.run(duration=4.0)
    stuck_at, cluster_at = marks["healed"]
    assert cluster_at - stuck_at >= 3, "the cut must cost the laggard several rounds"
    rounds = [r.round_number for r in deployment.replicas.values()]
    assert laggard.round_number >= max(rounds) - 2
    assert network.stats.by_type["CurrState"] >= 2  # f + 1 identical states
    # Its log restarts at the adopted round: a contiguous run of the longest log.
    log = list(laggard.execution_log)
    longest = list(max(deployment.replicas.values(), key=lambda r: len(r.execution_log)).execution_log)
    start = longest.index(log[0])
    assert longest[start : start + len(log)] == log
    assert len(log) > 0.5 * len(longest)
    assert laggard.ordering.tob.watermark >= stuck_at


@pytest.mark.parametrize(
    "missed",
    [
        # Decided, never delivered its BRD: the BRD timer reports the round.
        ByzantineReliableDissemination.MESSAGE_TYPES,
        # Decided and delivered, no remote bundle: the stage-2 complaint asks.
        (Inter, LocalShare),
    ],
    ids=["dissemination", "stage2"],
)
def test_a_member_that_missed_one_stage_executes_again(missed):
    deployment = small_deployment(seed=11)
    network, simulator = deployment.network, deployment.simulator
    laggard = deployment.replicas["c0/r3"]
    cut = lambda sender, destination, payload: destination == laggard.process_id and type(payload) in missed  # noqa: E731
    simulator.schedule(0.5, lambda: network.add_drop_rule(cut))
    simulator.schedule(0.8, lambda: network.remove_drop_rule(cut))
    deployment.run(duration=6.0)
    rounds = [r.round_number for r in deployment.replicas.values()]
    assert laggard.round_number >= max(rounds) - 2
    assert network.stats.by_type["CurrState"] >= 2


class TestLaggardAdoption:
    """What an active member needs before it replaces its state."""

    @staticmethod
    def _state(deployment, source, **changes):
        state = deployment.replicas[source].execution.curr_state(50)
        for name, value in changes.items():
            setattr(state, name, value)
        return state

    def test_f_plus_one_identical_states_from_members_are_adopted(self):
        deployment = small_deployment(seed=11)
        deployment.run(duration=0.2)
        laggard = deployment.replicas["c0/r3"]
        laggard.requester.on_curr_state("c0/r1", self._state(deployment, "c0/r1"))
        assert laggard.round_number < 50, "one member (f = 1) is not enough"
        laggard.requester.on_curr_state("c0/r2", self._state(deployment, "c0/r1"))
        assert laggard.round_number == 50
        assert laggard.ordering.tob.watermark == 49

    def test_outsiders_and_differing_states_do_not_count(self):
        deployment = small_deployment(seed=11)
        deployment.run(duration=0.2)
        laggard = deployment.replicas["c0/r3"]
        before = laggard.round_number
        laggard.requester.on_curr_state("c0/r1", self._state(deployment, "c0/r1"))
        # A member of another cluster, and a member that sends another state.
        laggard.requester.on_curr_state("c1/r1", self._state(deployment, "c0/r1"))
        laggard.requester.on_curr_state("c0/r2", self._state(deployment, "c0/r1", state_snapshot={"k": "forged"}))
        assert laggard.round_number == before

    def test_a_state_that_is_not_ahead_is_ignored(self):
        deployment = small_deployment(seed=11)
        deployment.run(duration=0.2)
        laggard = deployment.replicas["c0/r3"]
        state = deployment.replicas["c0/r1"].execution.curr_state(laggard.round_number)
        for sender in ("c0/r0", "c0/r1", "c0/r2"):
            laggard.requester.on_curr_state(sender, state)
        assert not laggard.requester._state_votes

    def test_adopting_while_the_next_round_is_pending_opens_it_once(self):
        deployment = small_deployment(seed=11)
        laggard = deployment.replicas["c0/r3"]
        opened = []
        open_round = laggard.ordering.open_round
        laggard.ordering.open_round = lambda number: (opened.append(number), open_round(number))
        execute = laggard.execution.maybe_execute
        adopted = []

        def execute_then_adopt():
            execute()
            if not adopted and laggard.round_state.stage2_done_at is not None and laggard.round_number > 5:
                # Executed, with the next round's start scheduled but not run.
                # The state is made up, so the laggard stops before it could
                # execute from it.
                adopted.append(laggard.round_number + 3)
                state = deployment.replicas["c0/r1"].execution.curr_state(adopted[0])
                for sender in ("c0/r1", "c0/r2"):
                    laggard.requester.on_curr_state(sender, state)
                deployment.simulator.schedule(0.002, laggard.crash)

        laggard.execution.maybe_execute = execute_then_adopt
        deployment.run(duration=0.3)
        assert adopted and laggard.round_number == adopted[0]
        assert opened.count(adopted[0]) == 1

