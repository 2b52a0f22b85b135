"""Tests for the open-loop client-population subsystem.

Covers the population config and presets, the constant-rate Poisson
arrival draws, the ScenarioSpec JSON round-trip
of the open-loop workload fields, fixed-seed determinism of open-loop runs,
the read-lease state machine and its end-to-end effect, the leader-hint
caching fix, and the gating A/B: with the whole subsystem present, the
closed-loop YCSB goldens must stay byte-identical (no re-pin).
"""

from __future__ import annotations

import json

import pytest

from repro.consensus.interface import ReadLease
from repro.core import replica as replica_module
from repro.core.messages import ClientResponse
from repro.core.types import make_transaction
from repro.errors import ConfigurationError, WorkloadError
from repro.harness.builder import Scenario
from repro.harness.runner import ResultRow, run_scenario
from repro.harness.scenario import ScenarioSpec
from repro.net.message import Envelope
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator
from repro.workload import population as population_module
from repro.workload.clients import WorkloadClient
from repro.workload.population import (
    BATCH_WINDOW,
    MAX_OUTSTANDING,
    POPULATION_PRESETS,
    ClientPopulation,
    PopulationConfig,
    resolve_population_preset,
)
from repro.workload.ycsb import YcsbConfig, YcsbWorkload
from tests.repin_goldens import e0_spec, load_goldens

# ---------------------------------------------------------------------- #
# Population config and presets
# ---------------------------------------------------------------------- #
class TestPopulationConfig:
    def test_defaults_validate(self):
        PopulationConfig().validate()

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            PopulationConfig(clients=0).validate()
        with pytest.raises(WorkloadError):
            PopulationConfig(rate=-5.0).validate()

    def test_every_preset_is_valid_and_fresh(self):
        for name in POPULATION_PRESETS:
            config = resolve_population_preset(name)
            config.validate()
            # Presets are factories: resolving twice must not share state.
            assert resolve_population_preset(name) is not config

    def test_unknown_preset_rejected(self):
        with pytest.raises(WorkloadError):
            resolve_population_preset("tsunami")

    def test_copy_is_independent(self):
        config = PopulationConfig(rate=100.0)
        clone = config.copy()
        clone.rate = 999.0
        assert config.rate == 100.0


# ---------------------------------------------------------------------- #
# Constant-rate Poisson arrivals
# ---------------------------------------------------------------------- #
def _population(client_id: str = "pop", rate: float = 500.0, seed: int = 1) -> ClientPopulation:
    """A population built while ``BATCH_WINDOW`` is patched to 0.05 s."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(population_module, "BATCH_WINDOW", 0.05)
        return ClientPopulation(
            client_id,
            Simulator(seed=seed),
            None,
            YcsbWorkload(YcsbConfig(), SeededRng(seed)),
            ["r0"],
            PopulationConfig(rate=rate),
        )


class TestConstantRateArrivals:
    # Mean 10 per window takes the exact (Knuth) draw, mean 1 000 the
    # normal approximation.
    @pytest.mark.parametrize("rate", [200.0, 20_000.0])
    def test_window_counts_are_poisson_with_mean_rate_times_window(self, rate):
        population = _population(rate=rate)
        counts = [population._window_arrivals() for _ in range(4000)]
        expected = rate * 0.05
        mean = sum(counts) / len(counts)
        variance = sum((count - mean) ** 2 for count in counts) / (len(counts) - 1)
        assert mean == pytest.approx(expected, rel=0.03)
        assert variance == pytest.approx(expected, rel=0.15)

    def test_zero_rate_draws_nothing(self):
        population = _population(rate=0.0)
        assert [population._window_arrivals() for _ in range(100)] == [0] * 100
        # No draw was consumed: the stream is where a fresh one starts.
        assert population._arrival_rng.random() == _population(rate=0.0)._arrival_rng.random()

    def test_each_population_has_its_own_stream(self):
        def draws(client_id):
            population = _population(client_id)
            return [population._window_arrivals() for _ in range(50)]

        assert draws("pop0") == draws("pop0")
        assert draws("pop0") != draws("pop1")

    def test_rate_is_read_every_window(self):
        population = _population(rate=200.0)
        before = sum(population._window_arrivals() for _ in range(1000))
        population.config.rate = 800.0
        after = sum(population._window_arrivals() for _ in range(1000))
        assert after / before == pytest.approx(4.0, rel=0.1)


# ---------------------------------------------------------------------- #
# ScenarioSpec round-trip of the new workload fields
# ---------------------------------------------------------------------- #
class TestScenarioSpecRoundTrip:
    def test_open_loop_spec_round_trips(self):
        spec = (
            Scenario("roundtrip")
            .clusters(4)
            .open_loop(clients=12_345, rate=321.0)
            .read_leases(True)
            .duration(1.0, warmup=0.1)
            .seeds(3)
            .spec()
        )
        payload = json.loads(json.dumps(spec.to_dict(), sort_keys=True))
        rebuilt = ScenarioSpec.from_dict(payload)
        assert rebuilt.workload_model == "open"
        assert rebuilt.population == spec.population
        assert rebuilt.to_dict() == spec.to_dict()

    def test_closed_spec_defaults_round_trip(self):
        spec = Scenario("closed").clusters(4).duration(1.0).spec()
        payload = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ScenarioSpec.from_dict(payload)
        assert rebuilt.workload_model == "closed"
        assert rebuilt.population is None

    def test_invalid_workload_model_rejected(self):
        spec = Scenario("bad").clusters(4).duration(1.0).spec()
        spec.workload_model = "half-open"
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_unknown_population_field_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario("bad").clusters(4).open_loop(think_time=1.0)


# ---------------------------------------------------------------------- #
# Fixed-seed determinism: same seed => byte-identical ResultRows
# ---------------------------------------------------------------------- #
def _open_loop_row(rate: float, seed: int = 5) -> ResultRow:
    spec = (
        Scenario("determinism-constant")
        .clusters(4)
        .engine("hotstuff")
        .open_loop(clients=150_000, rate=rate)
        .read_leases(True)
        .duration(1.2, warmup=0.2)
        .seeds(seed)
        .spec()
    )
    return run_scenario(spec)


class TestOpenLoopDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = _open_loop_row(750.0)
        second = _open_loop_row(750.0)
        assert first.error is None
        assert first.operations > 0
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        assert _open_loop_row(750.0, seed=5).to_json() != _open_loop_row(750.0, seed=6).to_json()


# ---------------------------------------------------------------------- #
# Scale: >= 100k simulated clients per region with O(1) state
# ---------------------------------------------------------------------- #
class TestPopulationScale:
    def test_100k_clients_per_region_sustained(self):
        spec = (
            Scenario("scale")
            .clusters(4, 4)
            .open_loop(preset="steady")
            .read_leases(True)
            .duration(2.0, warmup=0.25)
            .seeds(11)
            .spec()
        )
        deployment = spec.build()
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        assert len(deployment.populations) == 2
        ticks = spec.duration / BATCH_WINDOW
        for population in deployment.populations:
            # One aggregate process stands in for >= 100k users per region...
            assert population.config.clients >= 100_000
            stats = population.stats()
            assert stats["completed"] > 0
            # ...while per-population state stays O(ticks + in-flight), never
            # O(clients) or O(operations).
            assert len(population._backlog) <= ticks + 1
            assert stats["in_flight"] <= MAX_OUTSTANDING
            # The default deployment keeps up with the steady preset: the
            # backlog does not grow without bound.
            assert stats["backlog"] < 0.25 * stats["offered"]
        assert metrics.committed_count() > 0

    def test_offered_vs_goodput_divergence_under_overload(self, monkeypatch):
        # A rate far beyond what the pipelining window admits: open loop
        # means offered load keeps arriving and the backlog absorbs the
        # excess — the signal closed-loop clients structurally cannot
        # produce (their offered load collapses to whatever completes).
        monkeypatch.setattr(population_module, "MAX_OUTSTANDING", 100)
        spec = (
            Scenario("overload")
            .clusters(4)
            .open_loop(clients=200_000, rate=30_000.0)
            .duration(1.0, warmup=0.1)
            .seeds(11)
            .spec()
        )
        deployment = spec.build()
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        summary = metrics.open_loop_summary()
        population = deployment.populations[0]
        assert summary["offered"] > 1.5 * summary["goodput"] * spec.duration
        assert population.stats()["backlog"] > 0
        assert population.queueing_delay_mean() > 0.0
        # Backlog compression: tens of thousands of queued ops, O(ticks) pairs.
        assert len(population._backlog) <= spec.duration / BATCH_WINDOW + 1

    def test_latency_includes_backlog_wait(self, monkeypatch):
        # A burst against a small pipelining window: the burst queues
        # behind the window and drains long before the run ends, so nearly
        # every dispatched request also completes.  Latency runs from
        # arrival, so its mean cannot be below the mean time spent queued
        # (it was, when requests were stamped at dispatch).
        monkeypatch.setattr(population_module, "MAX_OUTSTANDING", 100)
        spec = (
            Scenario("backlog-latency")
            .clusters(4)
            .open_loop(clients=200_000, rate=20_000.0)
            .duration(3.0, warmup=0.0)
            .seeds(11)
            .spec()
        )
        deployment = spec.build()
        population = deployment.populations[0]
        # The rate is read on every tick: after 0.2 s the burst stops.
        deployment.simulator.schedule(0.2, lambda: setattr(population.config, "rate", 0.0))
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        stats = population.stats()
        assert stats["max_in_flight"] == 100
        assert stats["backlog"] == 0 and stats["in_flight"] < 10
        queue_delay = population.queueing_delay_mean()
        assert queue_delay > 0.01
        latencies = [record.latency for record in metrics.transactions]
        assert sum(latencies) / len(latencies) >= queue_delay


# ---------------------------------------------------------------------- #
# Read leases
# ---------------------------------------------------------------------- #
class TestReadLease:
    def test_install_and_expiry(self):
        lease = ReadLease()
        lease.install(view_ts=1, granted_at=10.0, duration=2.0)
        assert lease.valid(now=11.9, current_view_ts=1)
        assert not lease.valid(now=12.0, current_view_ts=1)

    def test_wrong_view_is_invalid(self):
        lease = ReadLease()
        lease.install(view_ts=1, granted_at=0.0, duration=5.0)
        assert not lease.valid(now=1.0, current_view_ts=2)

    def test_stale_grant_from_deposed_leader_ignored(self):
        lease = ReadLease()
        lease.install(view_ts=3, granted_at=0.0, duration=2.0)
        lease.install(view_ts=1, granted_at=0.0, duration=99.0)
        assert lease.view_ts == 3
        assert not lease.valid(now=5.0, current_view_ts=3)

    def test_view_advance_resets_expiry(self):
        lease = ReadLease()
        lease.install(view_ts=1, granted_at=0.0, duration=10.0)
        lease.install(view_ts=2, granted_at=1.0, duration=2.0)
        # The old view's generous expiry must not leak into the new view.
        assert not lease.valid(now=5.0, current_view_ts=2)
        assert lease.valid(now=2.9, current_view_ts=2)

    def test_refresh_extends_not_shrinks(self):
        lease = ReadLease()
        lease.install(view_ts=1, granted_at=0.0, duration=4.0)
        lease.install(view_ts=1, granted_at=1.0, duration=2.0)
        assert lease.expires_at == 4.0

    def test_revoke(self):
        lease = ReadLease()
        lease.install(view_ts=1, granted_at=0.0, duration=5.0)
        lease.revoke()
        assert not lease.valid(now=0.1, current_view_ts=1)

    def test_leases_serve_reads_locally_end_to_end(self, monkeypatch):
        monkeypatch.setattr(population_module, "BATCH_WINDOW", 0.01)
        # A short lease so the first grant (half a duration after start)
        # covers most of the run instead of its tail.
        monkeypatch.setattr(replica_module, "LEASE_DURATION", 0.4)
        spec = (
            Scenario("leases-on")
            .clusters(4)
            .open_loop(rate=600.0)
            .read_leases(True)
            .duration(1.5, warmup=0.2)
            .seeds(9)
            .spec()
        )
        row = run_scenario(spec)
        assert row.error is None
        assert row.population["lease_hits"] > 0
        # Reads are 85% of the mix and every non-leader replica holds a
        # lease after the first grant round, so most reads must hit.
        assert row.population["lease_hit_rate"] > 0.5

    def test_leases_off_by_default(self, monkeypatch):
        monkeypatch.setattr(population_module, "BATCH_WINDOW", 0.01)
        spec = (
            Scenario("leases-off")
            .clusters(4)
            .open_loop(rate=600.0)
            .duration(1.0, warmup=0.2)
            .seeds(9)
            .spec()
        )
        row = run_scenario(spec)
        assert row.error is None
        assert row.population["lease_hits"] == 0
        assert row.population["lease_misses"] == 0


# ---------------------------------------------------------------------- #
# Leader-hint caching (closed-loop fix)
# ---------------------------------------------------------------------- #
class TestLeaderHintCaching:
    def _client(self) -> WorkloadClient:
        simulator = Simulator(seed=1)
        workload = YcsbWorkload(YcsbConfig(), SeededRng(1))
        return WorkloadClient(
            client_id="c",
            simulator=simulator,
            network=None,
            workload=workload,
            target_replicas=["r1", "r2"],
            threads=1,
        )

    def _respond(self, client: WorkloadClient, sender: str, hint: str) -> None:
        thread = client.threads[0]
        txn = make_transaction("c", sender, "read", "user1")
        thread.outstanding_txn = txn
        thread.awaiting = sender
        client._by_txn[txn.txn_id] = thread
        response = ClientResponse(txn_id=txn.txn_id, leader_hint=hint)
        client.on_message(sender, Envelope(sender=sender, payload=response))

    def test_hint_outside_initial_target_set_is_cached(self):
        # A joiner that won leadership is not in the client's start-time
        # target list; its hint must still route writes straight to it.
        client = self._client()
        self._respond(client, "r1", "joiner7")
        assert client._leader_hint == "joiner7"

    def test_suspected_hint_is_not_adopted(self):
        client = self._client()
        client._suspected.add("r2")
        self._respond(client, "r1", "r2")
        assert client._leader_hint == ""

    def test_suspecting_the_cached_leader_invalidates_it(self):
        client = self._client()
        self._respond(client, "r1", "r2")
        assert client._leader_hint == "r2"
        client._suspect("r2")
        assert client._leader_hint == ""


# ---------------------------------------------------------------------- #
# Gating A/B: closed-loop goldens stay byte-identical (NO re-pin)
# ---------------------------------------------------------------------- #
class TestClosedLoopGoldensAB:
    def test_goldens_unchanged_after_open_loop_ran_in_process(self):
        goldens = load_goldens()["hotstuff"]
        # Arm B first: a full open-loop run with leases in the same process,
        # so any global-state leakage (RNG, caches, counters) from the new
        # subsystem would poison the closed-loop run that follows.
        open_row = _open_loop_row(500.0)
        assert open_row.error is None
        # Arm A: the pinned closed-loop E0 scenario must still match the
        # committed goldens bit-for-bit — the new subsystem is opt-in.
        spec = e0_spec()
        deployment = spec.build()
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        assert metrics.summary() == goldens["summary"]
        assert deployment.network.stats.snapshot() == goldens["network"]
        assert deployment.simulator.events_processed == goldens["events"]
        # And the closed-loop run never touches the open-loop counters.
        assert metrics.offered == 0
        assert metrics.lease_hits == metrics.lease_misses == 0


# ---------------------------------------------------------------------- #
# A replica that leaves tells the populations it served
# ---------------------------------------------------------------------- #
class TestDeparture:
    def test_a_departed_replica_is_dropped_and_its_in_flight_operations_resent_at_once(self):
        from repro.core.messages import ClientBatchResponse
        from repro.core.replica import MODE_LEFT

        spec = (
            Scenario("departure")
            .clusters((5, "us-west1"), (4, "europe-west3"))
            .open_loop(rate=600.0)
            .timeouts(1.0)
            .config(retry_timeout=1.0)
            .leave("c0/r4", at=0.5)
            .duration(2.0, warmup=0.0)
            .seeds(5)
            .spec()
        )
        deployment = spec.build()
        population = next(p for p in deployment.populations if "c0/r4" in p.target_replicas)
        notices = []
        resent_at_notice = []
        on_message = population.on_message

        def recording(sender, envelope):
            payload = envelope.payload
            if isinstance(payload, ClientBatchResponse) and payload.departed:
                notices.append(sender)
                stranded = [r for r in population._inflight.values() if r[2] == sender]
                on_message(sender, envelope)
                resent_at_notice.append((len(stranded), population.retries))
                return
            on_message(sender, envelope)

        population.on_message = recording
        deployment.run(duration=spec.duration, warmup=spec.warmup)
        assert deployment.replicas["c0/r4"].mode == MODE_LEFT
        assert notices == ["c0/r4"]
        assert "c0/r4" not in population.target_replicas
        assert all(target != "c0/r4" for _, _, target in population._inflight.values())
        # Every operation stranded at the leaver was re-sent on the notice.
        stranded, retries = resent_at_notice[0]
        assert retries >= stranded
        # Without the notice, the reads sent to the leaver after it left
        # waited out retry sweeps: 171 of 1 234 were still in flight at 2 s.
        assert population.completed >= 0.95 * population.dispatched
