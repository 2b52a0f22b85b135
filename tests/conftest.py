"""Shared fixtures for the test suite (helpers live in ``helpers.py``)."""

from __future__ import annotations

import pytest

from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.simulator import Simulator


@pytest.fixture
def simulator() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def network(simulator) -> Network:
    """A network over the fixture simulator."""
    registry = KeyRegistry(seed=42)
    latency = LatencyModel()
    return Network(simulator, latency, registry)


@pytest.fixture
def registry() -> KeyRegistry:
    """A standalone key registry."""
    return KeyRegistry(seed=7)
