"""The replicated application state machine: a key-value store over one log.

The paper evaluates with YCSB over a key-value state.  Every correct replica
executes the *same* total order (the Agreement and Total-order theorems), so
the order itself is stored once per simulation shard, in an
:class:`ExecutionLedger`; a replica's :class:`KeyValueStore` keeps its own
key/value data plus a ``(start, cursor)`` window into that ledger.  The first
replica to execute a position appends it, and every later one is checked
against it — a replica whose next entry differs has violated Agreement and
raises :class:`~repro.errors.AgreementViolation` on the spot, in every run.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

from repro.core.types import Transaction
from repro.errors import AgreementViolation


class ExecutionLedger:
    """The total order executed by the replicas that share this ledger.

    Attributes:
        ids: Transaction ids in execution order (reads and writes).
        index: ``txn_id -> first position in ids``.
        applied: ``(txn_id, key)`` of the writes, in execution order.
        round_starts: ``round -> (len(ids), len(applied))`` when the first
            replica began executing that round; a joining replica, which
            adopts a snapshot taken at a round boundary, starts there.
    """

    __slots__ = ("ids", "index", "applied", "round_starts")

    def __init__(self) -> None:
        self.ids: List[str] = []
        self.index: Dict[str, int] = {}
        self.applied: List[Tuple[str, str]] = []
        self.round_starts: Dict[int, Tuple[int, int]] = {}


class LedgerView(Sequence):
    """Read-only window ``log[start:stop]`` onto one of a ledger's lists.

    The lists only ever grow, so a view stays valid; it compares equal to a
    ``list`` (or another view) with the same items, and slices to a ``list``.
    """

    __slots__ = ("_log", "_span")

    def __init__(self, log: list, start: int, stop: int) -> None:
        self._log = log
        self._span = range(start, stop)

    def __len__(self) -> int:
        return len(self._span)

    def __getitem__(self, item):
        log = self._log
        if isinstance(item, slice):
            return [log[position] for position in self._span[item]]
        return log[self._span[item]]

    def __iter__(self):
        log = self._log
        return (log[position] for position in self._span)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, LedgerView)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"LedgerView({list(self)!r})"


class KeyValueStore:
    """A deterministic key-value state machine.

    Attributes:
        data: Current key/value mapping.
        applied: Number of write transactions applied.
        ledger: The shared execution order (private when none is given).
    """

    __slots__ = ("data", "applied", "ledger", "_start", "_cursor", "_applied_start")

    def __init__(self, ledger: Optional[ExecutionLedger] = None) -> None:
        self.data: Dict[str, str] = {}
        self.applied = 0
        self.ledger = ledger if ledger is not None else ExecutionLedger()
        self._start = 0
        self._cursor = 0
        self._applied_start = 0

    @property
    def execution_log(self) -> LedgerView:
        """Ids of every transaction this store executed, in order."""
        return LedgerView(self.ledger.ids, self._start, self._cursor)

    @property
    def applied_log(self) -> LedgerView:
        """``(txn_id, key)`` of every write this store applied, in order."""
        start = self._applied_start
        return LedgerView(self.ledger.applied, start, start + self.applied)

    def executed(self, txn_id: str) -> bool:
        """Whether this store has executed the transaction."""
        position = self.ledger.index.get(txn_id)
        return position is not None and self._start <= position < self._cursor

    def begin_round(self, round_number: int) -> None:
        """Note where ``round_number`` starts in the ledger (first executor wins)."""
        starts = self.ledger.round_starts
        if round_number not in starts:
            starts[round_number] = (self._cursor, self._applied_start + self.applied)

    def apply(self, transaction: Transaction) -> Optional[str]:
        """Execute the next transaction of the total order; returns the response value."""
        ledger = self.ledger
        txn_id = transaction.txn_id
        position = self._cursor
        ids = ledger.ids
        if position == len(ids):
            ids.append(txn_id)
            ledger.index.setdefault(txn_id, position)
        elif ids[position] != txn_id:
            raise AgreementViolation(
                f"execution position {position}: this replica executes {txn_id!r} "
                f"where another executed {ids[position]!r}"
            )
        self._cursor = position + 1
        key = transaction.key
        if transaction.is_read:
            return self.data.get(key)
        self.data[key] = transaction.value or ""
        position = self._applied_start + self.applied
        applied = ledger.applied
        if position == len(applied):
            applied.append((txn_id, key))
        else:
            entry = applied[position]
            if entry[0] != txn_id or entry[1] != key:
                raise AgreementViolation(
                    f"applied-write position {position}: this replica writes "
                    f"{(txn_id, key)!r} where another wrote {entry!r}"
                )
        self.applied += 1
        return transaction.value

    def read(self, key: str) -> Optional[str]:
        """Read a key without going through a transaction."""
        return self.data.get(key)

    def snapshot(self) -> Dict[str, str]:
        """A copy of the current data, used for ``CurrState`` transfers."""
        return dict(self.data)

    def restore(self, snapshot: Dict[str, str], round_number: Optional[int] = None) -> None:
        """Replace the state with a received snapshot (joining replicas).

        With ``round_number`` — the round the snapshot's holder executes
        next — the store's history restarts there: its logs are empty and
        its next entry is that round's first.
        """
        self.data = dict(snapshot)
        if round_number is not None:
            ledger = self.ledger
            position, applied_position = ledger.round_starts.get(
                round_number, (len(ledger.ids), len(ledger.applied))
            )
            self._start = self._cursor = position
            self._applied_start = applied_position
            self.applied = 0

    def fingerprint(self) -> Tuple[int, int]:
        """A cheap state fingerprint: (#keys, #applied writes)."""
        return (len(self.data), self.applied)


__all__ = ["ExecutionLedger", "KeyValueStore", "LedgerView"]
