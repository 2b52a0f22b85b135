"""Regression tests for the protocol/workload hot-path PRs.

Covers the fused delivery pipeline's per-destination FIFO guarantee, the
Zipf alias table (shared per key space, so a large build stays small), and
the protocol-layer caches (view epochs, bundle
digests) — alongside the goldens in ``test_hotpath_and_fixes.py`` / ``tests/goldens_e0.json``,
which pin fixed-seed runs to bit-identical simulation results.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.core.types import OperationsBundle, make_transaction
from repro.harness.builder import Scenario
from repro.harness.metrics import MetricsCollector
from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.links import AuthenticatedPerfectLink
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator
from repro.workload.zipf import ZipfianGenerator


# ---------------------------------------------------------------------- #
# Fused delivery pipeline: per-destination FIFO under multicast bursts
# ---------------------------------------------------------------------- #
class _Recorder(Process):
    def __init__(self, process_id, simulator):
        super().__init__(process_id, simulator)
        self.received = []

    def on_message(self, sender, envelope):
        self.received.append(envelope.payload.marker)


class _Marked(Message):
    def __init__(self, marker):
        self.marker = marker

    def estimated_size(self) -> int:
        return 256

    def verification_cost(self) -> int:
        return 3  # long enough processing to force queueing under bursts


class _SendRecordingNetwork(Network):
    """Records the per-destination send-schedule order.

    The fused pipeline's FIFO discipline is *send-schedule order* per
    destination: hand-over slots are assigned monotonically at send time, so
    with no crashes or drops every destination must receive exactly the
    messages addressed to it, in the order the sends were issued.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.send_order = {}

    def send(self, sender, destination, payload, signature=None):
        self.send_order.setdefault(destination, []).append(payload.marker)
        super().send(sender, destination, payload, signature)

    def multicast(self, sender, destinations, payload, signature=None):
        for destination in destinations:
            self.send_order.setdefault(destination, []).append(payload.marker)
        super().multicast(sender, destinations, payload, signature)


class TestPipelineFifo:
    def _build(self, seed, network_cls=Network):
        sim = Simulator(seed=seed)
        registry = KeyRegistry(seed=seed)
        network = network_cls(sim, LatencyModel(), registry)
        senders = []
        receivers = []
        for index in range(4):
            receiver = _Recorder(f"r{index}", sim)
            network.register(receiver, region="us-west1")
            receivers.append(receiver)
        for index in range(3):
            sender = _Recorder(f"s{index}", sim)
            network.register(sender, region="us-west1")
            senders.append(sender)
        return sim, network, senders, receivers

    def test_delivery_order_equals_send_order_across_random_bursts(self):
        """Property-style check over several seeds and randomized bursts."""
        for seed in (1, 2, 3, 4, 5):
            sim, network, senders, receivers = self._build(
                seed, network_cls=_SendRecordingNetwork
            )
            links = {s.process_id: AuthenticatedPerfectLink(s.process_id, network) for s in senders}
            rng = SeededRng(seed, "bursts")._random  # the plain generator: randint
            marker = 0
            for wave in range(20):
                at = wave * 0.002
                for sender in senders:
                    if rng.random() < 0.7:
                        count = rng.randint(1, 4)
                        for _ in range(count):
                            payload = _Marked(marker)
                            marker += 1
                            targets = [r.process_id for r in receivers]
                            sim.schedule_at(
                                at,
                                lambda l=links[sender.process_id], t=targets, p=payload: l.send_many(t, p),
                            )
            sim.run()
            # No crashes or drops in this scenario, so the hand-over order at
            # every destination must equal the send-schedule order exactly.
            for receiver in receivers:
                assert receiver.received == network.send_order.get(receiver.process_id, []), (
                    f"FIFO violated at {receiver.process_id} (seed {seed})"
                )
                assert receiver.received, "scenario must actually deliver traffic"

    def test_sustained_burst_drains_completely_in_order(self):
        sim, network, senders, receivers = self._build(seed=9)
        link = AuthenticatedPerfectLink(senders[0].process_id, network)
        destination = receivers[0].process_id
        for index in range(50):
            link.send(destination, _Marked(index))
        sim.run()
        # A single sender's point-to-point stream is FIFO: jitter cannot
        # reorder hand-overs because CPU slots are assigned at send time.
        assert receivers[0].received == list(range(50))
        # The serial CPU queue is visible: hand-overs are spaced by at least
        # the per-message processing cost once the queue saturates.
        assert network.stats.messages_delivered == 50

    def test_crash_mid_queue_drops_remaining_messages(self):
        sim, network, senders, receivers = self._build(seed=10)
        link = AuthenticatedPerfectLink(senders[0].process_id, network)
        destination = receivers[0].process_id
        for index in range(10):
            link.send(destination, _Marked(index))
        # Crash the receiver shortly after the first hand-overs (~0.95 ms
        # for the first, then one every ~0.25 ms of processing).
        sim.schedule(0.002, receivers[0].crash)
        sim.run()
        delivered = len(receivers[0].received)
        assert 0 < delivered < 10
        assert receivers[0].received == list(range(delivered))
        assert network.stats.messages_dropped == 10 - delivered


# ---------------------------------------------------------------------- #
# Zipf alias table
# ---------------------------------------------------------------------- #
class TestZipfAlias:
    def test_distribution_agrees_with_cdf_probabilities(self):
        """Chi-squared agreement between alias draws and probability()."""
        items = 50
        draws = 200_000
        generator = ZipfianGenerator(items, 0.99, SeededRng(123, "zipf-chi"))
        counts = [0] * items
        for _ in range(draws):
            counts[generator.next()] += 1
        chi = 0.0
        for rank in range(items):
            expected = generator.probability(rank) * draws
            chi += (counts[rank] - expected) ** 2 / expected
        # 49 degrees of freedom: p=0.001 critical value is ~85.4.
        assert chi < 85.4, f"chi-squared {chi:.1f} too large; alias table disagrees with CDF"

    def test_probabilities_sum_to_one_and_match_alias_mass(self):
        generator = ZipfianGenerator(64, 0.99, SeededRng(7, "zipf-mass"))
        total = sum(generator.probability(rank) for rank in range(64))
        assert math.isclose(total, 1.0, rel_tol=1e-9)
        # The alias table redistributes exactly the same total mass.
        mass = [0.0] * 64
        for index in range(64):
            mass[index] += generator._prob[index] / 64
            mass[generator._alias[index]] += (1.0 - generator._prob[index]) / 64
        for rank in range(64):
            assert math.isclose(mass[rank], generator.probability(rank), abs_tol=1e-9)

    def test_same_seed_generators_draw_identically(self):
        a = ZipfianGenerator(1000, 0.99, SeededRng(42, "zipf-det"))
        b = ZipfianGenerator(1000, 0.99, SeededRng(42, "zipf-det"))
        assert [a.next() for _ in range(2000)] == [b.next() for _ in range(2000)]

    def test_one_uniform_draw_per_next(self):
        """The alias table must consume the rng stream exactly like the old
        CDF inversion did (one uniform per draw), so sibling streams — and
        therefore whole-simulation determinism — are unaffected."""
        rng = SeededRng(5, "zipf-stream")
        generator = ZipfianGenerator(100, 0.99, rng)
        reference = SeededRng(5, "zipf-stream")
        for _ in range(500):
            generator.next()
            reference.random()
        assert rng.random() == reference.random()

    def test_generators_over_one_key_space_share_immutable_tables(self):
        a = ZipfianGenerator(500, 0.99, SeededRng(1, "zipf-share"))
        b = ZipfianGenerator(500, 0.99, SeededRng(2, "zipf-share"))
        assert a._alias is b._alias and a._prob is b._prob and a._cdf is b._cdf
        for table, value in ((a._alias, 0), (a._prob, 0.5), (a._cdf, 0.5)):
            assert type(table) is memoryview and table.readonly
            with pytest.raises(TypeError):
                table[0] = value
        assert ZipfianGenerator(500, 0.5, SeededRng(1, "zipf-share"))._alias is not a._alias
        assert ZipfianGenerator(501, 0.99, SeededRng(1, "zipf-share"))._alias is not a._alias

    def test_draws_are_pinned(self):
        """The YCSB key space and skew: the first draws of a fixed seed."""
        generator = ZipfianGenerator(10_000, 0.99, SeededRng(11, "zipf-pin"))
        assert [generator.next() for _ in range(20)] == [
            9, 1854, 8, 28, 2160, 0, 1, 4794, 209, 3, 0, 21, 2385, 4, 380, 1499, 5098, 3596, 259, 824,
        ]


class TestBuildMemory:
    def test_a_32_cluster_closed_loop_build_stays_small(self):
        """32 clusters of 4 with YCSB clients: the clients share one packed
        Zipf table and the replicas one member set per cluster, so the build
        retains ~3.9 MB; one table per client put it near 28 MB, and boxed
        tables plus one view per replica at 5.2 MB."""
        spec = (
            Scenario("build-memory")
            .clusters(*[(4, f"dc{index}") for index in range(32)])
            .threads(8)
            .duration(1.0)
            .spec()
        )
        gc.collect()
        tracemalloc.start()
        try:
            deployment = spec.build()
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(deployment.replicas) == 128
        assert retained < 4_500_000, f"spec.build() retains {retained / 1e6:.1f} MB"


class TestRunMemory:
    def test_canonicalize_of_an_in_order_run_allocates_no_key_per_record(self):
        """A serial run records in completion order, so canonicalize only
        sorts the ties; a full key sort costs ~72 B per record."""
        metrics = MetricsCollector()
        count = 20_000
        for index in range(count):
            metrics.record_transaction(
                f"t{index}", "write", 0.01, (index // 4) * 0.001, f"client-{(index * 7) % 13}"
            )
        gc.collect()
        tracemalloc.start()
        try:
            metrics.canonicalize()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / count <= 16, f"canonicalize peaks at {peak / count:.1f} B/record"

    def test_importing_repro_leaves_multiprocessing_unloaded(self):
        """The pool is imported when a grid runs on it, not by every process."""
        source = os.path.dirname(os.path.dirname(repro.__file__))
        probe = "import sys, repro; print('multiprocessing' in sys.modules)"
        output = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": source},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert output.strip() == "False"


# ---------------------------------------------------------------------- #
# Protocol-layer caches
# ---------------------------------------------------------------------- #
class TestBundleCaches:
    def _bundle(self):
        txns = [make_transaction("c", "r0", "write", f"k{i}", value="v") for i in range(10)]
        return OperationsBundle(cluster_id=0, round_number=1, transactions=txns)

    def test_size_bytes_cached_and_stable(self):
        bundle = self._bundle()
        first = bundle.size_bytes()
        assert bundle.size_bytes() == first
        assert first == 256 + 10 * 1024

    def test_digest_cached_and_distinct_per_bundle(self):
        a = self._bundle()
        b = self._bundle()
        assert a.digest() == a.digest()
        assert a.digest() != b.digest()  # different txn ids

    def test_digests_are_fixed_width_whatever_the_batch_size(self):
        """Every replica keeps a batch's digest per consensus instance and
        embeds it in each vote digest, so it must not grow with the batch."""
        from repro.consensus.interface import commit_digest
        from repro.core.messages import LocalShare
        from repro.net.message import SHORT_DIGEST, compact_digest, payload_digest

        assert payload_digest(()) == "()" and payload_digest([1, 2]) == "[1, 2]"
        assert compact_digest("x" * SHORT_DIGEST) == "x" * SHORT_DIGEST
        small, large = self._bundle(), self._bundle()
        large.transactions = large.transactions * 50
        for bundle in (small, large):
            batch = payload_digest(bundle.transactions)
            assert batch.startswith("#") and len(batch) == 25
            assert batch == payload_digest(list(bundle.transactions))
            assert len(bundle.digest()) == 25
            assert len(commit_digest(0, 1, bundle.transactions)) <= SHORT_DIGEST
            share = LocalShare(round_number=1, cluster_id=0, bundle=bundle)
            assert len(share.digest()) < 100
        assert payload_digest(small.transactions) != payload_digest(large.transactions)
        assert commit_digest(0, 1, small.transactions) != commit_digest(0, 2, small.transactions)

    def test_view_cache_invalidated_by_reconfig(self):
        from tests.helpers import small_deployment

        deployment = small_deployment()
        replica = deployment.replicas["c0/r0"]
        before = replica.members(0)
        assert replica.members(0) is before  # cached list identity
        from repro.core.types import join_request

        replica.execution.apply_reconfig(0, join_request("joiner", 0, "us-west1"))
        after = replica.members(0)
        assert after is not before
        assert "joiner" in after
