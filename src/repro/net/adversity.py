"""Dynamic network adversity: trace-driven RTTs and congestion surcharge.

Production WANs are not a static latency matrix.  This module supplies the
two dynamic-latency sources of the adversarial scenario pack:

* :class:`RttTrace` — a serializable, piecewise-linear ``(time, rtt_ms)``
  schedule per region pair, loadable from JSON (the shape of real cloud
  RTT measurements) or generated synthetically.  The latency model samples
  the trace at *send* time, so inter-region latency drifts over a run.
* :class:`CongestionModel` — load-dependent link latency.  Each sender's
  wire traffic to a remote region is accumulated in fixed windows, an
  M/M/1-style queueing surcharge ``SERVICE_TIME * rho / (1 - rho)`` is
  added per message (the model's constants are this module's), and
  declarative :class:`CrossTrafficStream` entries inject background
  cross-traffic into the utilization without simulating the foreign
  packets.

Determinism contract (the part that makes this subtle): the sharded kernel
requires every latency ingredient to be *shard-layout invariant*.

* Traces are pure functions of virtual time — invariant by construction.
  They can lower the RTT mid-run, so the conservative lookahead must track
  the trace: :meth:`~repro.net.latency.LatencyModel.cross_group_floor_schedule`
  publishes a per-segment floor and the deployment forces barriers at
  segment boundaries (no window ever straddles a floor change).
* Congestion state is keyed by the sender's *owner cluster*: a cluster's
  local event sequence — and with it the send order of all its processes —
  is identical under every shard layout, so the per-window byte counters
  evolve identically too.  The surcharge is non-negative and added *after*
  the latency floor clamp, so it can never undercut the lookahead and
  needs no barrier-grid changes.  No randomness is drawn anywhere in this
  module at simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import config_rng

__all__ = [
    "CongestionConfig",
    "CongestionModel",
    "CrossTrafficStream",
    "RttTrace",
]


def _pair_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical (sorted) key for an unordered region pair."""
    return (a, b) if a <= b else (b, a)


@dataclass
class RttTrace:
    """Piecewise-linear RTT schedule per region pair (times in seconds, RTTs in ms).

    ``segments`` maps an unordered region pair to its breakpoints
    ``[(time, rtt_ms), ...]`` sorted by time.  Between breakpoints the RTT
    is linearly interpolated; before the first and after the last it
    extends as a constant.  Pairs absent from the trace keep the static
    table's RTT.

    A trace is *data*: it round-trips through JSON
    (:meth:`to_dict`/:meth:`from_dict`) and rides inside a
    :class:`~repro.harness.scenario.ScenarioSpec`, so multiprocess shard
    workers rebuild the identical schedule.
    """

    segments: Dict[Tuple[str, str], List[Tuple[float, float]]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def synthetic(
        cls,
        pairs: Sequence[Tuple[str, str, float]],
        duration: float,
        seed: int = 1,
        step: float = 2.0,
        wander: float = 0.25,
        spike_probability: float = 0.15,
        spike_scale: float = 2.0,
    ) -> "RttTrace":
        """Generate a cloud-measurement-shaped trace.

        For each ``(region_a, region_b, base_rtt_ms)`` the RTT performs a
        bounded random walk around its base with occasional congestion
        spikes — the texture of real inter-region RTT measurements.  The
        generator runs at *configuration* time from its own plain seeded
        RNG (never a simulation stream), and the result is pure data, so
        the same arguments always produce the same trace.

        Args:
            pairs: Region pairs with their nominal RTTs in milliseconds.
            duration: Virtual seconds the trace must cover.
            seed: Generator seed (independent of scenario seeds).
            step: Seconds between breakpoints.
            wander: Max relative walk step per breakpoint.
            spike_probability: Chance a breakpoint is a spike.
            spike_scale: Spike height as a multiple of the base RTT.
        """
        if step <= 0:
            raise ConfigurationError("RttTrace.synthetic: step must be positive")
        # config_rng(seed) is random.Random(seed) by contract, so traces
        # generated before this module was migrated replay byte-for-byte.
        rng = config_rng(seed)
        segments: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        for region_a, region_b, base in pairs:
            series: List[Tuple[float, float]] = []
            rtt = float(base)
            t = 0.0
            while t <= duration + step:
                series.append((t, round(rtt, 3)))
                drift = 1.0 + rng.uniform(-wander, wander)
                if rng.random() < spike_probability:
                    rtt = base * spike_scale * drift
                else:
                    # Walk back toward the base so the trace stays bounded.
                    rtt = max(base * 0.5, min(base * spike_scale, (rtt + base) / 2.0 * drift))
                t += step
            segments[_pair_key(region_a, region_b)] = series
        trace = cls(segments=segments)
        trace.validate()
        return trace

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an unusable trace."""
        if not self.segments:
            raise ConfigurationError("RttTrace has no region pairs")
        for pair, series in self.segments.items():
            if not series:
                raise ConfigurationError(f"RttTrace pair {pair!r} has no points")
            last = None
            for t, rtt in series:
                if rtt <= 0:
                    raise ConfigurationError(
                        f"RttTrace pair {pair!r}: rtt must be positive, got {rtt} at t={t}"
                    )
                if last is not None and t < last:
                    raise ConfigurationError(f"RttTrace pair {pair!r}: points must be time-sorted")
                last = t

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def rtt_at(self, region_a: str, region_b: str, time: float) -> Optional[float]:
        """RTT (ms) of a pair at a virtual time; ``None`` for untraced pairs."""
        series = self.segments.get(_pair_key(region_a, region_b))
        if series is None:
            return None
        first_t, first_rtt = series[0]
        if time <= first_t:
            return first_rtt
        for index in range(1, len(series)):
            t1, rtt1 = series[index]
            if time <= t1:
                t0, rtt0 = series[index - 1]
                if t1 == t0:
                    return rtt1
                frac = (time - t0) / (t1 - t0)
                return rtt0 + (rtt1 - rtt0) * frac
        return series[-1][1]

    def window_min_rtt(self, region_a: str, region_b: str, start: float, end: float) -> Optional[float]:
        """Smallest RTT a pair can take inside ``[start, end]``.

        Piecewise-linear functions attain their extrema at segment
        endpoints, so the minimum over a window is the min of the sampled
        window edges and every breakpoint strictly inside it.
        """
        series = self.segments.get(_pair_key(region_a, region_b))
        if series is None:
            return None
        best = min(self.rtt_at(region_a, region_b, start), self.rtt_at(region_a, region_b, end))
        for t, rtt in series:
            if start < t < end and rtt < best:
                best = rtt
        return best

    def breakpoints(self) -> List[float]:
        """Sorted unique breakpoint times across every traced pair."""
        times = {t for series in self.segments.values() for t, _ in series}
        return sorted(times)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable description (pairs become ``"a|b"`` keys)."""
        return {
            "segments": {
                f"{pair[0]}|{pair[1]}": [[t, rtt] for t, rtt in series]
                for pair, series in sorted(self.segments.items())
            }
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RttTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        segments: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        for key, series in payload.get("segments", {}).items():
            a, sep, b = key.partition("|")
            if not sep:
                raise ConfigurationError(f"RttTrace pair key {key!r} must look like 'regionA|regionB'")
            segments[_pair_key(a, b)] = [(float(t), float(rtt)) for t, rtt in series]
        trace = cls(segments=segments)
        trace.validate()
        return trace


@dataclass
class CrossTrafficStream:
    """Declarative background traffic loading one directed region link.

    The stream's bytes are never simulated as messages; they only raise the
    utilization the congestion model sees on ``src_region -> dst_region``
    while the stream is active (``start <= now < stop``).
    """

    src_region: str
    dst_region: str
    rate_bytes_per_sec: float
    start: float = 0.0
    stop: Optional[float] = None

    def active_rate(self, now: float) -> float:
        """Bytes/second this stream offers at a virtual time."""
        if now < self.start:
            return 0.0
        if self.stop is not None and now >= self.stop:
            return 0.0
        return self.rate_bytes_per_sec


#: Constants of the load-dependent latency model.  Usable capacity of one
#: inter-region link (bytes/second):
CAPACITY_BYTES_PER_SEC = 1.25e8
#: Utilization accounting window (virtual seconds):
WINDOW = 0.25
#: Queueing-delay scale: the per-message surcharge is
#: ``SERVICE_TIME * rho / (1 - rho)`` with utilization ``rho``:
SERVICE_TIME = 0.004
#: Cap on ``rho``, so the surcharge stays finite even when offered load
#: exceeds capacity:
MAX_UTILIZATION = 0.95


@dataclass
class CongestionConfig:
    """The congestion model's background cross-traffic.

    Attributes:
        streams: Background cross-traffic loading links without messages.
    """

    streams: List[CrossTrafficStream] = field(default_factory=list)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on unusable streams."""
        for stream in self.streams:
            if stream.rate_bytes_per_sec < 0:
                raise ConfigurationError("CrossTrafficStream: rate_bytes_per_sec must be >= 0")
            if stream.stop is not None and stream.stop <= stream.start:
                raise ConfigurationError("CrossTrafficStream: stop must be after start")

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable description."""
        return {
            "streams": [
                {
                    "src_region": s.src_region,
                    "dst_region": s.dst_region,
                    "rate_bytes_per_sec": s.rate_bytes_per_sec,
                    "start": s.start,
                    "stop": s.stop,
                }
                for s in self.streams
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CongestionConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        streams = [CrossTrafficStream(**entry) for entry in payload.get("streams", [])]
        config = cls(streams=streams)
        config.validate()
        return config


class CongestionModel:
    """Per-link utilization tracker feeding an M/M/1-style surcharge.

    One model is shared by every delivery pipeline of a deployment.  State
    is keyed by ``(accounting key, src_region, dst_region)``, where the
    accounting key is the sender's owner cluster (falling back to the
    sender id on standalone networks): all of one cluster's processes live
    on one shard under every layout and their interleaved send order is
    layout-invariant, so the windowed byte counters — and with them every
    surcharge — are bit-identical however the simulation is sharded.

    The model draws no randomness and only ever *adds* latency after the
    pipeline's floor clamp, so the conservative lookahead is untouched.
    """

    def __init__(self, config: CongestionConfig, latency_model) -> None:
        config.validate()
        self.config = config
        self._latency_model = latency_model
        self._capacity = CAPACITY_BYTES_PER_SEC
        self._window = WINDOW
        self._service_time = SERVICE_TIME
        self._max_utilization = MAX_UTILIZATION
        #: (key, src_region, dst_region) -> [window_index, bytes_this_window]
        self._state: Dict[tuple, List] = {}
        #: (src_region, dst_region) -> streams loading that directed link.
        self._streams: Dict[Tuple[str, str], List[CrossTrafficStream]] = {}
        for stream in config.streams:
            self._streams.setdefault((stream.src_region, stream.dst_region), []).append(stream)

    def background_rate(self, src_region: str, dst_region: str, now: float) -> float:
        """Bytes/second of background cross-traffic on a link at ``now``."""
        streams = self._streams.get((src_region, dst_region))
        if not streams:
            return 0.0
        return sum(stream.active_rate(now) for stream in streams)

    def surcharge(self, key, sender: str, destination: str, size: int, now: float) -> float:
        """Queueing delay (seconds) for one wire message sent at ``now``.

        Utilization is the window's already-accounted bytes plus active
        background streams over the link capacity; the message's own bytes
        are accounted *after* computing its surcharge (a message does not
        queue behind itself).  Intra-region traffic pays nothing.
        """
        region_of = self._latency_model.region_of
        src_region = region_of(sender)
        dst_region = region_of(destination)
        if src_region == dst_region:
            return 0.0
        window = self._window
        window_index = int(now / window)
        state_key = (key, src_region, dst_region)
        acc = self._state.get(state_key)
        if acc is None:
            acc = self._state[state_key] = [window_index, 0.0]
        elif acc[0] != window_index:
            acc[0] = window_index
            acc[1] = 0.0
        offered = acc[1] / window + self.background_rate(src_region, dst_region, now)
        acc[1] += size
        if offered <= 0.0:
            return 0.0
        rho = offered / self._capacity
        if rho > self._max_utilization:
            rho = self._max_utilization
        return self._service_time * rho / (1.0 - rho)
