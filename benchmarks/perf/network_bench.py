"""Microbenchmarks for the simulated network hot path.

A ring of processes spread over three regions sends signed payloads to
everyone else in lockstep rounds.  Each message exercises the full per-send
cost the protocols pay: the (lazy) link-layer signature on the sender, a
latency event, the receiver CPU queue, and signature verification — so
these are the numbers that move when :mod:`repro.net` sheds per-message
overhead.  Two rows share the ring: ``network_multicast`` fans out through
``send_many`` (one signature and one envelope per round and sender), and
``network_signed_send`` through point-to-point ``send`` (one signature and
one envelope per destination) — the path every protocol reply, forward and
client request takes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.links import AuthenticatedPerfectLink
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator

_REGIONS = ("us-west1", "europe-west3", "asia-south1")


@dataclass
class _Payload(Message):
    """A payload with enough fields to make ``digest()`` representative."""

    round_number: int
    sender_index: int
    body: str = "x" * 64


class _Sink(Process):
    """Counts deliveries; the benchmark asserts nothing was lost."""

    def __init__(self, process_id: str, simulator: Simulator) -> None:
        super().__init__(process_id, simulator)
        self.received = 0

    def on_message(self, sender: str, message: object) -> None:
        self.received += 1


def _signed_sends(link: AuthenticatedPerfectLink, others: List[str], payload: Message) -> None:
    for destination in others:
        link.send(destination, payload)


def _bench_ring(
    fan_out: Callable[[AuthenticatedPerfectLink, List[str], Message], None],
    processes: int,
    rounds: int,
    seed: int,
    repeats: int,
) -> Dict[str, float]:
    """``rounds`` lockstep all-to-all exchanges across three regions."""
    best = float("inf")
    expected = rounds * processes * (processes - 1)
    for _ in range(repeats):
        sim = Simulator(seed=seed)
        registry = KeyRegistry(seed=seed)
        network = Network(sim, LatencyModel(), registry)
        sinks: List[_Sink] = []
        links: List[AuthenticatedPerfectLink] = []
        for index in range(processes):
            sink = _Sink(f"p{index}", sim)
            network.register(sink, region=_REGIONS[index % len(_REGIONS)])
            sinks.append(sink)
            links.append(AuthenticatedPerfectLink(sink.process_id, network))
        ids = [sink.process_id for sink in sinks]

        def round_of(number: int) -> None:
            for index, link in enumerate(links):
                others = [pid for pid in ids if pid != link.owner]
                fan_out(link, others, _Payload(round_number=number, sender_index=index))
            if number + 1 < rounds:
                sim.schedule(0.05, lambda n=number + 1: round_of(n))

        sim.schedule(0.0, lambda: round_of(0))
        started = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - started
        delivered = sum(sink.received for sink in sinks)
        assert delivered == expected, f"lost messages: {delivered} != {expected}"
        best = min(best, elapsed)
    return {
        "messages": float(expected),
        "wall_s": best,
        "messages_per_sec": expected / best,
    }


def bench_multicast(
    processes: int = 9, rounds: int = 300, seed: int = 7, repeats: int = 3
) -> Dict[str, float]:
    """All-to-all through ``send_many``: one signed envelope per sender and round."""
    return _bench_ring(AuthenticatedPerfectLink.send_many, processes, rounds, seed, repeats)


def bench_signed_send(
    processes: int = 9, rounds: int = 300, seed: int = 7, repeats: int = 3
) -> Dict[str, float]:
    """All-to-all through point-to-point ``send``: one signed envelope per message."""
    return _bench_ring(_signed_sends, processes, rounds, seed, repeats)


def run(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Run both ring workloads; ``quick`` shrinks them for CI smoke runs."""
    rounds = 30 if quick else 300
    return {
        "network_multicast": bench_multicast(rounds=rounds),
        "network_signed_send": bench_signed_send(rounds=rounds),
    }


__all__ = ["bench_multicast", "bench_signed_send", "run"]
