"""Metrics collection: the numbers the paper's figures report.

The collector is a passive sink that replicas and clients call into:

* clients record per-transaction latency and completion time,
* one reporter replica per cluster records per-round stage timings,
* replicas record applied reconfigurations and completed joins.

Queries then reproduce the paper's measurements: throughput (txns/s) over a
measurement window, mean/percentile latency split by read/write, the E2
stage breakdown, and throughput time series for the failure and
reconfiguration experiments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import nlargest
from math import ceil, inf
from typing import Dict, List, Optional, Tuple


@dataclass(slots=True)
class TransactionRecord:
    """One completed client operation (one is allocated per operation)."""

    txn_id: str
    op: str
    latency: float
    completed_at: float
    client_id: str


@dataclass
class RoundRecord:
    """Stage timings of one executed round at one cluster."""

    cluster_id: int
    round_number: int
    started_at: float
    stage1_done_at: float
    stage2_done_at: float
    ended_at: float
    transactions: int
    reconfigs: int

    @property
    def stage1_duration(self) -> float:
        """Intra-cluster replication time."""
        return max(0.0, self.stage1_done_at - self.started_at)

    @property
    def stage2_duration(self) -> float:
        """Inter-cluster communication time."""
        return max(0.0, self.stage2_done_at - self.stage1_done_at)

    @property
    def stage3_duration(self) -> float:
        """Execution time."""
        return max(0.0, self.ended_at - self.stage2_done_at)


@dataclass
class ReconfigRecord:
    """One applied reconfiguration."""

    kind: str
    process_id: str
    cluster_id: int
    round_number: int
    applied_at: float


def _latency_percentile(records: List[TransactionRecord], percentile: float) -> float:
    # Keeps only the latencies ranked above the answer (1 % of them for the
    # p99), not a sorted copy of all of them.
    if not records:
        return 0.0
    count = len(records)
    index = min(count - 1, max(0, ceil(percentile * count) - 1))
    return nlargest(count - index, (r.latency for r in records))[-1]


def _tie_key(record: TransactionRecord) -> Tuple[str, str]:
    return record.client_id, record.txn_id


def _sort_ties(records: List[TransactionRecord]) -> bool:
    """Sort each run of equal ``completed_at`` by ``(client_id, txn_id)``.

    Returns ``False`` as soon as a record completes before its predecessor;
    the list is then only partly tie-sorted and needs the full key sort.
    """
    run_start = 0
    previous = None
    for index, record in enumerate(records):
        at = record.completed_at
        if at != previous:
            if previous is not None and at < previous:
                return False
            if index - run_start > 1:
                records[run_start:index] = sorted(records[run_start:index], key=_tie_key)
            run_start = index
            previous = at
    if len(records) - run_start > 1:
        records[run_start:] = sorted(records[run_start:], key=_tie_key)
    return True


class MetricsCollector:
    """Collects and summarizes measurements from one deployment run."""

    def __init__(self) -> None:
        self.transactions: List[TransactionRecord] = []
        self.rounds: List[RoundRecord] = []
        self.reconfigs: List[ReconfigRecord] = []
        self.joins_completed: List[Tuple[str, int, float]] = []
        self._completion_times: List[float] = []
        self.window: Tuple[float, Optional[float]] = (0.0, None)
        # Open-loop counters (populations and read leases).  Kept out of
        # ``summary()`` — its keys are pinned byte-for-byte by the
        # determinism goldens — and surfaced via ``open_loop_summary()``.
        self.offered = 0
        self.lease_hits = 0
        self.lease_misses = 0

    # ------------------------------------------------------------------ #
    # Recording hooks (called by clients and replicas)
    # ------------------------------------------------------------------ #
    def record_transaction(
        self, txn_id: str, op: str, latency: float, completed_at: float, client_id: str
    ) -> None:
        """Record a completed client operation."""
        self.transactions.append(TransactionRecord(txn_id, op, latency, completed_at, client_id))
        self._completion_times.append(completed_at)

    def record_round(
        self,
        cluster_id: int,
        round_number: int,
        started_at: float,
        stage1_done_at: float,
        stage2_done_at: float,
        ended_at: float,
        transactions: int,
        reconfigs: int,
    ) -> None:
        """Record one executed round's stage timings (reporter replicas only)."""
        self.rounds.append(
            RoundRecord(
                cluster_id=cluster_id,
                round_number=round_number,
                started_at=started_at,
                stage1_done_at=stage1_done_at,
                stage2_done_at=stage2_done_at,
                ended_at=ended_at,
                transactions=transactions,
                reconfigs=reconfigs,
            )
        )

    def record_reconfig(
        self, kind: str, process_id: str, cluster_id: int, round_number: int, applied_at: float
    ) -> None:
        """Record an applied join/leave."""
        self.reconfigs.append(
            ReconfigRecord(
                kind=kind,
                process_id=process_id,
                cluster_id=cluster_id,
                round_number=round_number,
                applied_at=applied_at,
            )
        )

    def record_join_completed(self, process_id: str, cluster_id: int, at: float) -> None:
        """Record that a joining replica finished its state transfer."""
        self.joins_completed.append((process_id, cluster_id, at))

    def record_offered(self, count: int) -> None:
        """Record operations *offered* by an open-loop arrival stream.

        Offered load is counted at arrival, not completion — the divergence
        between offered and goodput is exactly the overload signal the
        open-loop model exists to measure.
        """
        self.offered += count

    def record_lease_reads(self, hits: int, misses: int) -> None:
        """Record lease-covered reads served locally vs forwarded misses."""
        self.lease_hits += hits
        self.lease_misses += misses

    # ------------------------------------------------------------------ #
    # Canonical ordering and sharded merging
    # ------------------------------------------------------------------ #
    def canonicalize(self) -> None:
        """Sort every record list into its canonical (virtual-time) order.

        Float folds over these lists (mean latency, stage sums) are
        order-sensitive, so byte-identical serial-vs-sharded results require
        one canonical order imposed on *both*.  Each key is a total order:
        ``(completed_at, client_id, txn_id)`` is unique per transaction,
        ``(cluster_id, round_number)`` per round.  The harness calls this
        once per run, after the clock stops.

        A serial run appends transactions as the clock advances, so they are
        already in ``completed_at`` order and only each run of equal
        completion times needs sorting; the full key sort (one key tuple per
        record, the run's memory high-water mark) is left to lists that are
        out of order, i.e. shard lists concatenated by :meth:`merge_from`.
        """
        records = self.transactions
        in_order = _sort_ties(records)
        if not in_order:
            records.sort(key=lambda r: (r.completed_at, r.client_id, r.txn_id))
        if not in_order or len(self._completion_times) != len(records):
            self._completion_times = [r.completed_at for r in records]
        self.rounds.sort(key=lambda r: (r.started_at, r.cluster_id, r.round_number))
        self.reconfigs.sort(
            key=lambda r: (r.applied_at, r.cluster_id, r.round_number, r.kind, r.process_id)
        )
        self.joins_completed.sort(key=lambda entry: (entry[2], entry[0], entry[1]))

    def merge_from(self, others: "List[MetricsCollector]") -> None:
        """Fold per-shard collectors into this one (then canonicalise).

        Record lists concatenate and re-sort; the open-loop counters are
        plain ints, so summation is order-free.  The result is identical to
        what a single collector would have recorded serially.
        """
        for other in others:
            self.transactions.extend(other.transactions)
            self.rounds.extend(other.rounds)
            self.reconfigs.extend(other.reconfigs)
            self.joins_completed.extend(other.joins_completed)
            self.offered += other.offered
            self.lease_hits += other.lease_hits
            self.lease_misses += other.lease_misses
        self.canonicalize()

    # ------------------------------------------------------------------ #
    # Measurement window
    # ------------------------------------------------------------------ #
    def set_window(self, start: float, end: Optional[float] = None) -> None:
        """Restrict queries to completions within ``[start, end]``.

        The paper runs for 3 minutes and reports the last minute; the window
        plays that role.
        """
        self.window = (start, end)

    def _in_window(self, record: TransactionRecord) -> bool:
        start, end = self.window
        if record.completed_at < start:
            return False
        return end is None or record.completed_at <= end

    def _windowed(self, op: Optional[str] = None) -> List[TransactionRecord]:
        return [
            record
            for record in self.transactions
            if self._in_window(record) and (op is None or record.op == op)
        ]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def committed_count(self, op: Optional[str] = None) -> int:
        """Number of completed operations in the window."""
        return len(self._windowed(op))

    def throughput(self, duration: Optional[float] = None, op: Optional[str] = None) -> float:
        """Operations per second over the measurement window."""
        return self._rate_and_mean(self._windowed(), op, duration)[0]

    def mean_latency(self, op: Optional[str] = None) -> float:
        """Average latency (seconds) of completed operations in the window."""
        return self._rate_and_mean(self._windowed(), op)[1]

    def _rate_and_mean(
        self, window: List[TransactionRecord], op: Optional[str] = None, duration: Optional[float] = None
    ) -> Tuple[float, float]:
        """Throughput and mean latency of ``op`` (every op if ``None``) in ``window``.

        Without ``duration`` the window's open end is the latest completion.
        Reads the records in place: :meth:`summary` asks three times of one
        window, and copies nothing out of it.
        """
        count = 0
        latest = -inf
        for record in window:
            if op is None or record.op == op:
                count += 1
                if record.completed_at > latest:
                    latest = record.completed_at
        if not count:
            return 0.0, 0.0
        if duration is None:
            start, end = self.window
            duration = max((end if end is not None else latest) - start, 1e-9)
        total = sum(r.latency for r in window if op is None or r.op == op)
        return count / duration, total / count

    def latency_percentile(self, percentile: float, op: Optional[str] = None) -> float:
        """Latency percentile (e.g. 0.5 for the median, 0.99 for p99).

        Nearest-rank: the smallest sample such that at least ``percentile``
        of the data is at or below it (``int(p * n)`` would be biased one
        rank high — the p50 of two samples must be the smaller one).
        """
        return _latency_percentile(self._windowed(op), percentile)

    def throughput_timeseries(self, bucket: float = 1.0, until: Optional[float] = None) -> List[Tuple[float, float]]:
        """Throughput per time bucket: ``[(bucket_start, ops_per_second), ...]``."""
        if not self.transactions and until is None:
            return []
        times = sorted(self._completion_times)
        horizon = until if until is not None else (times[-1] if times else 0.0)
        series: List[Tuple[float, float]] = []
        start = 0.0
        while start < horizon:
            end = start + bucket
            # Half-open buckets [start, end): bisect_left on both bounds keeps
            # a completion landing exactly on a bucket boundary in the later
            # bucket instead of dropping it.  When ``until`` truncates the
            # final bucket, normalise by the covered width — dividing a
            # fractional bucket's count by the full width under-reported its
            # rate (a 0.5 s tail at a steady 100 ops/s printed 50 ops/s).
            width = bucket if end <= horizon else horizon - start
            count = bisect_left(times, end) - bisect_left(times, start)
            series.append((start, count / width))
            start = end
        return series

    def stage_breakdown(self) -> Dict[str, float]:
        """Average per-stage durations (seconds) over recorded rounds."""
        if not self.rounds:
            return {"stage1": 0.0, "stage2": 0.0, "stage3": 0.0}
        count = len(self.rounds)
        return {
            "stage1": sum(r.stage1_duration for r in self.rounds) / count,
            "stage2": sum(r.stage2_duration for r in self.rounds) / count,
            "stage3": sum(r.stage3_duration for r in self.rounds) / count,
        }

    def rounds_executed(self) -> int:
        """Number of recorded rounds (reporter replicas only)."""
        return len(self.rounds)

    def summary(self) -> Dict[str, float]:
        """A flat summary of the headline numbers.

        The window is built once, and each number is the one its query
        method returns, summed in the same order.  A run's memory
        high-water mark can be this call, so it copies no records out of
        the window: the reads and writes are counted and summed in place.
        """
        window = self._windowed()
        latency_p99 = _latency_percentile(window, 0.99)
        total = self._rate_and_mean(window)
        writes = self._rate_and_mean(window, "write")
        reads = self._rate_and_mean(window, "read")
        return {
            "throughput_total": total[0],
            "throughput_writes": writes[0],
            "throughput_reads": reads[0],
            "latency_mean": total[1],
            "latency_mean_read": reads[1],
            "latency_mean_write": writes[1],
            "latency_p99": latency_p99,
            "operations": float(len(window)),
            "rounds": float(self.rounds_executed()),
            "reconfigs_applied": float(len(self.reconfigs)),
        }

    def lease_hit_rate(self) -> float:
        """Fraction of lease-eligible reads served without leader contact."""
        total = self.lease_hits + self.lease_misses
        if not total:
            return 0.0
        return self.lease_hits / total

    def open_loop_summary(self) -> Dict[str, float]:
        """Open-loop headline numbers (offered load vs goodput, leases).

        Separate from :meth:`summary` on purpose: the closed-loop summary's
        keys are pinned by the determinism goldens, while these counters
        only move when a scenario opts into populations or read leases.
        """
        goodput = self.throughput()
        start, end = self.window
        duration = None
        if end is not None:
            duration = max(end - start, 1e-9)
        elif self._completion_times:
            duration = max(max(self._completion_times) - start, 1e-9)
        offered_rate = self.offered / duration if duration else 0.0
        return {
            "offered": float(self.offered),
            "offered_rate": offered_rate,
            "goodput": goodput,
            "lease_hits": float(self.lease_hits),
            "lease_misses": float(self.lease_misses),
            "lease_hit_rate": self.lease_hit_rate(),
        }


__all__ = ["MetricsCollector", "ReconfigRecord", "RoundRecord", "TransactionRecord"]
