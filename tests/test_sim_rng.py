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

    def test_uniform_bounds(self):
        rng = SeededRng(1)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_jitter_keeps_sign_and_scale(self):
        rng = SeededRng(2)
        for _ in range(100):
            value = rng.jitter(10.0, 0.1)
            assert 9.0 <= value <= 11.0
        assert rng.jitter(0.0, 0.5) == 0.0

    def test_sample_and_choice(self):
        rng = SeededRng(3)
        items = list(range(20))
        sample = rng.sample(items, 5)
        assert len(set(sample)) == 5
        assert rng.choice(items) in items


def test_stable_hash_is_deterministic():
    assert stable_hash(["a", "b"]) == stable_hash(["a", "b"])
    assert stable_hash(["a", "b"]) != stable_hash(["b", "a"])


def test_config_rng_matches_plain_seeding():
    ours = config_rng(123)
    reference = random.Random(123)
    assert [ours.random() for _ in range(5)] == [reference.random() for _ in range(5)]
