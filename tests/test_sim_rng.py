"""Tests for seeded RNG namespacing and determinism."""

from __future__ import annotations

import random

from repro.sim.rng import SeededRng, config_rng, stable_hash


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(5, "net")
        b = SeededRng(5, "net")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_namespaces_differ(self):
        a = SeededRng(5, "net")
        b = SeededRng(5, "workload")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_child_streams_are_independent(self):
        root = SeededRng(5)
        child_a = root.child("a")
        child_b = root.child("b")
        sequence_a = [child_a.random() for _ in range(5)]
        # Drawing from b must not perturb a fresh copy of a's stream.
        [child_b.random() for _ in range(100)]
        fresh_a = SeededRng(5).child("a")
        assert sequence_a == [fresh_a.random() for _ in range(5)]

    def test_nested_children_name_their_path(self):
        nested = SeededRng(5, "sim").child("net").child("link")
        assert nested.namespace == "sim/net/link"
        direct = SeededRng(5, "sim/net/link")
        assert [nested.random() for _ in range(5)] == [direct.random() for _ in range(5)]

    def test_different_root_seeds_differ(self):
        a = SeededRng(5, "net")
        b = SeededRng(6, "net")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_raw_random_draws_from_the_same_stream(self):
        wrapped = SeededRng(7, "hot")
        raw = SeededRng(7, "hot").raw_random
        interleaved = SeededRng(7, "hot")
        assert [wrapped.random() for _ in range(6)] == [raw() for _ in range(6)]
        draws = [interleaved.random(), interleaved.raw_random(), interleaved.random()]
        reference = SeededRng(7, "hot")
        assert draws == [reference.random() for _ in range(3)]

    def test_gauss_is_seeded(self):
        a = SeededRng(9, "arrivals")
        b = SeededRng(9, "arrivals")
        draws = [a.gauss(100.0, 10.0) for _ in range(200)]
        assert draws == [b.gauss(100.0, 10.0) for _ in range(200)]
        mean = sum(draws) / len(draws)
        assert 97.0 < mean < 103.0


def test_stable_hash_is_deterministic():
    assert stable_hash(["a", "b"]) == stable_hash(["a", "b"])
    assert stable_hash(["a", "b"]) != stable_hash(["b", "a"])


def test_config_rng_matches_plain_seeding():
    ours = config_rng(123)
    reference = random.Random(123)
    assert [ours.random() for _ in range(5)] == [reference.random() for _ in range(5)]
