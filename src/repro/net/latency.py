"""Geographic latency model.

The paper deploys clusters across three Google Cloud regions and reports the
inter-region round-trip times in Table II.  This module reproduces that
matrix and extends it with the extra locations used in experiment E8
(us-east5, asia-northeast1), using the one-way latencies the paper quotes for
that experiment (52 / 91 / 142 / 219 ms round trips to us-west1).

One-way latency between two processes is ``rtt / 2`` plus a small jitter;
intra-region latency is sub-millisecond, matching a single cloud zone.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.adversity import RttTrace

Region = str

#: Inter-region round-trip latency in milliseconds (paper, Table II), plus the
#: extra regions used by experiment E8 (latencies to us-west1 given in §V-E8).
REGION_RTT_MS: Dict[Tuple[Region, Region], float] = {
    ("us-west1", "us-west1"): 0.0,
    ("europe-west3", "europe-west3"): 0.0,
    ("asia-south1", "asia-south1"): 0.0,
    ("us-west1", "europe-west3"): 148.0,
    ("us-west1", "asia-south1"): 214.0,
    ("europe-west3", "asia-south1"): 134.0,
    # E8 extra regions: RTT to us-west1 reported in the paper.
    ("us-west1", "us-east5"): 52.0,
    ("us-west1", "asia-northeast1"): 91.0,
    # Reasonable symmetric fills for pairs the paper does not report; they are
    # only exercised if a scenario explicitly places clusters there.
    ("us-east5", "europe-west3"): 100.0,
    ("us-east5", "asia-south1"): 230.0,
    ("us-east5", "asia-northeast1"): 150.0,
    ("us-east5", "us-east5"): 0.0,
    ("asia-northeast1", "europe-west3"): 220.0,
    ("asia-northeast1", "asia-south1"): 120.0,
    ("asia-northeast1", "asia-northeast1"): 0.0,
}

#: Aliases used in the paper's prose ("US", "EU", "Asia") mapped to regions.
REGION_ALIASES: Dict[str, Region] = {
    "US": "us-west1",
    "EU": "europe-west3",
    "Asia": "asia-south1",
    "us": "us-west1",
    "eu": "europe-west3",
    "asia": "asia-south1",
}


def canonical_region(region: Region) -> Region:
    """Map prose aliases ("US", "EU", "Asia") to canonical region names."""
    return REGION_ALIASES.get(region, region)


#: Hub region for the triangle-inequality fallback below.  Every region the
#: paper (and any realistic table) names has an RTT to the primary US site.
TRIANGLE_HUB: Region = "us-west1"

#: Region pairs already warned about (one warning per pair per process).
#: Warn-once dedup: never read by simulation logic, so it cannot affect
#: results.
_estimated_pairs: set = set()


def _table_rtt(a: Region, b: Region, table: Mapping[Tuple[Region, Region], float]) -> Optional[float]:
    if a == b:
        return 0.0
    if (a, b) in table:
        return table[(a, b)]
    if (b, a) in table:
        return table[(b, a)]
    return None


def region_rtt_ms(a: Region, b: Region, table: Optional[Mapping[Tuple[Region, Region], float]] = None) -> float:
    """Round-trip time in milliseconds between two regions.

    Explicit table entries are authoritative.  A pair the table does not
    list is *estimated* by the triangle inequality through
    :data:`TRIANGLE_HUB` (``rtt(a, hub) + rtt(hub, b)`` — an upper bound on
    the direct path, which is the safe direction for a latency model), with
    a one-time ``RuntimeWarning`` naming the estimate so sweeps over novel
    regions run instead of crashing.  Only pairs with no route through the
    hub still raise :class:`ConfigurationError`.
    """
    table = table if table is not None else REGION_RTT_MS
    a = canonical_region(a)
    b = canonical_region(b)
    direct = _table_rtt(a, b, table)
    if direct is not None:
        return direct
    leg_a = _table_rtt(a, TRIANGLE_HUB, table)
    leg_b = _table_rtt(TRIANGLE_HUB, b, table)
    if leg_a is not None and leg_b is not None:
        estimate = leg_a + leg_b
        key = (a, b) if a <= b else (b, a)
        if key not in _estimated_pairs:
            _estimated_pairs.add(key)
            warnings.warn(
                f"no RTT entry for region pair ({a!r}, {b!r}); using the "
                f"triangle-inequality estimate {estimate:g} ms via "
                f"{TRIANGLE_HUB!r} (add an explicit entry to override)",
                RuntimeWarning,
                stacklevel=2,
            )
        return estimate
    raise ConfigurationError(f"no RTT entry for region pair ({a!r}, {b!r})")


#: Model constants (seconds).  One-way latency between nodes in one zone:
INTRA_REGION_LATENCY = 0.0006
#: Relative jitter applied to each one-way latency:
JITTER_FRACTION = 0.08
#: Per-link serialization bandwidth; larger messages (batches) take
#: proportionally longer:
BANDWIDTH_BYTES_PER_SEC = 2.0e8
#: Fixed software overhead per delivered message:
PER_MESSAGE_OVERHEAD = 0.00005


class LatencyModel:
    """Computes message delivery latency between located processes.

    The jitter draws are not the model's: each sender's network port owns
    its stream (see :class:`~repro.net.network.Network`).
    """

    def __init__(self) -> None:
        self._rtt_table = dict(REGION_RTT_MS)
        #: Optional piecewise-linear RTT schedule; traced pairs are sampled
        #: at send time (the network bypasses its route memo for them).
        self._trace: Optional[RttTrace] = None
        self._locations: Dict[str, Region] = {}
        #: Memo of (base, jitter spread) per src -> dst process pair (nested
        #: dicts, so the per-message lookup allocates no key tuple);
        #: invalidated whenever a placement or the RTT table changes.
        self._pair_base: Dict[str, Dict[str, Tuple[float, float]]] = {}
        #: Called (no args) whenever the memo above is invalidated, so
        #: downstream caches derived from it — the network's per-port route
        #: memos — are torn down in the same breath.
        self._invalidate_hooks: list = []
        # Model constants are immutable after construction; bind them once.
        self._intra_region_latency = INTRA_REGION_LATENCY
        self._jitter_fraction = JITTER_FRACTION
        self._bandwidth = BANDWIDTH_BYTES_PER_SEC
        self._per_message_overhead = PER_MESSAGE_OVERHEAD

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def place(self, process_id: str, region: Region) -> None:
        """Record the region a process runs in."""
        self._locations[process_id] = canonical_region(region)
        self._pair_base.clear()
        for hook in self._invalidate_hooks:
            hook()

    def region_of(self, process_id: str) -> Region:
        """The region a process was placed in (default: us-west1)."""
        return self._locations.get(process_id, "us-west1")

    def set_rtt(self, a: Region, b: Region, rtt_ms: float) -> None:
        """Override the RTT between two regions (used by the E8 sweep)."""
        a = canonical_region(a)
        b = canonical_region(b)
        self._rtt_table[(a, b)] = rtt_ms
        self._rtt_table[(b, a)] = rtt_ms
        self._pair_base.clear()
        for hook in self._invalidate_hooks:
            hook()

    def set_trace(self, trace: Optional[RttTrace]) -> None:
        """Install (or clear) a trace-driven RTT schedule.

        Traced pairs stop being served from the static table: the network
        re-samples them at every send instead of caching route constants.  Installing a trace invalidates all derived memos.
        """
        if trace is not None:
            trace.validate()
        self._trace = trace
        self._pair_base.clear()
        for hook in self._invalidate_hooks:
            hook()

    @property
    def trace(self) -> Optional[RttTrace]:
        """The installed RTT trace, if any."""
        return self._trace

    def rtt_ms(self, a: Region, b: Region) -> float:
        """RTT between two regions under the current table."""
        return region_rtt_ms(a, b, self._rtt_table)

    def traced_pair_params(self, src: str, dst: str, time: float) -> Optional[Tuple[float, float]]:
        """Time-varying ``(base, jitter spread)`` of a traced process pair.

        Returns ``None`` when the pair's regions are not covered by the
        trace (or are the same region) — the caller then falls back to the
        static, memoised :meth:`pair_params`.
        """
        trace = self._trace
        if trace is None:
            return None
        src_region = self.region_of(src)
        dst_region = self.region_of(dst)
        if src_region == dst_region:
            return None
        rtt = trace.rtt_at(src_region, dst_region, time)
        if rtt is None:
            return None
        base = rtt / 2.0 / 1000.0
        return (base, base * self._jitter_fraction)

    # ------------------------------------------------------------------ #
    # Latency computation
    # ------------------------------------------------------------------ #
    def pair_params(self, src: str, dst: str) -> Tuple[float, float]:
        """The memoised ``(base, jitter spread)`` of a process pair — no draw.

        The delivery pipeline owns one jitter stream per *sender* (so a
        sender's draw sequence depends only on its own send order, which is
        invariant under kernel sharding) and resolves the pair constants
        through this method.
        """
        by_src = self._pair_base.get(src)
        if by_src is None:
            by_src = self._pair_base[src] = {}
        pair = by_src.get(dst)
        if pair is None:
            src_region = self.region_of(src)
            dst_region = self.region_of(dst)
            if src_region == dst_region:
                base = self._intra_region_latency
            else:
                base = self.rtt_ms(src_region, dst_region) / 2.0 / 1000.0
            pair = by_src[dst] = (base, base * self._jitter_fraction)
        return pair

    def _cross_group_region_pairs(self, groups: Mapping[str, object]) -> List[Tuple[Region, Region]]:
        """Region pairs with processes in different groups (deduplicated)."""
        regions_by_group: Dict[object, set] = {}
        for process_id, group in groups.items():
            regions_by_group.setdefault(group, set()).add(self.region_of(process_id))
        keys = sorted(regions_by_group, key=repr)
        pairs: List[Tuple[Region, Region]] = []
        seen: set = set()
        for index, group_a in enumerate(keys):
            for group_b in keys[index + 1:]:
                for region_a in sorted(regions_by_group[group_a]):
                    for region_b in sorted(regions_by_group[group_b]):
                        key = (region_a, region_b) if region_a <= region_b else (region_b, region_a)
                        if key not in seen:
                            seen.add(key)
                            pairs.append((region_a, region_b))
        return pairs

    def _pair_base_latency(self, region_a: Region, region_b: Region) -> float:
        if region_a == region_b:
            return self._intra_region_latency
        return self.rtt_ms(region_a, region_b) / 2.0 / 1000.0

    def _base_floor(self, base: float) -> float:
        """The network's latency clamp applied to a base latency.

        Mirrors ``Network.multicast`` exactly — ``max(base - spread,
        overhead) + overhead`` with a zero-size transfer — using the same
        float expressions, so the bound is tight *and* safe (the jitter draw
        is ``base + ((spread + spread) * r - spread)`` with ``r >= 0``, and
        float addition is monotone).
        """
        overhead = self._per_message_overhead
        spread = base * self._jitter_fraction
        if base == 0:
            # The network skips the jitter draw entirely for zero-base
            # pairs; latency is the clamped transfer.
            floor = overhead
        else:
            floor = base - spread
            if floor < overhead:
                floor = overhead
        return floor + overhead

    def cross_group_floor_schedule(
        self, groups: Mapping[str, object]
    ) -> Optional[List[Tuple[float, float]]]:
        """Piecewise-constant conservative floor: ``[(segment_start, floor), ...]``.

        ``groups`` maps process ids to an opaque group key (the sharded
        kernel passes owner-cluster ids); the floor is the conservative
        lookahead of the parallel kernel: no message sent between groups
        can arrive sooner.  With an :class:`RttTrace` installed it is
        recomputed per trace segment (for each window between consecutive
        breakpoints the traced pair's RTT minimum sits at a window edge,
        piecewise-linearity obliging), and the deployment forces a barrier
        at every segment boundary so no lookahead window straddles a floor
        change.  Without a trace the schedule is the single segment
        ``[(0.0, floor)]``.  Returns ``None`` when no two processes belong
        to different groups (no cross-group traffic is possible, hence no
        synchronisation barrier is needed).
        """
        pairs = self._cross_group_region_pairs(groups)
        if not pairs:
            return None
        trace = self._trace
        if trace is None:
            best = min(self._base_floor(self._pair_base_latency(a, b)) for a, b in pairs)
            return [(0.0, best)]
        starts = [0.0]
        for t in trace.breakpoints():
            if t > starts[-1]:
                starts.append(t)
        schedule: List[Tuple[float, float]] = []
        for index, start in enumerate(starts):
            end = starts[index + 1] if index + 1 < len(starts) else None
            best: Optional[float] = None
            for region_a, region_b in pairs:
                if region_a == region_b:
                    base = self._intra_region_latency
                else:
                    if end is None:
                        rtt = trace.rtt_at(region_a, region_b, start)
                    else:
                        rtt = trace.window_min_rtt(region_a, region_b, start, end)
                    if rtt is None:
                        rtt = self.rtt_ms(region_a, region_b)
                    base = rtt / 2.0 / 1000.0
                floor = self._base_floor(base)
                if best is None or floor < best:
                    best = floor
            schedule.append((start, best))
        return schedule


def paper_rtt_matrix() -> Dict[str, Dict[str, float]]:
    """Return Table II as a nested dict keyed by the paper's region labels."""
    labels = ["US", "EU", "Asia"]
    matrix: Dict[str, Dict[str, float]] = {}
    for a in labels:
        matrix[a] = {}
        for b in labels:
            matrix[a][b] = region_rtt_ms(a, b)
    return matrix


__all__ = [
    "LatencyModel",
    "REGION_RTT_MS",
    "REGION_ALIASES",
    "Region",
    "TRIANGLE_HUB",
    "canonical_region",
    "paper_rtt_matrix",
    "region_rtt_ms",
]
