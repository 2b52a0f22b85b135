"""The replicated application state machine: a key-value store over one log.

The paper evaluates with YCSB over a key-value state.  Every correct replica
executes the *same* total order (the Agreement and Total-order theorems), so
the order itself is stored once per simulation shard, in an
:class:`ExecutionLedger`, and so is the state it produces: the ledger keeps
every write's value, the position of each key's last write and, per write,
the position of the previous write of the same key.  A replica's
:class:`KeyValueStore` is a ``(start, cursor)`` window into that ledger; it
reads a key at its own position by walking that chain back (no step for a
replica at the frontier, one for a replica a round behind) and falls back
to a private base dict that only a restored snapshot fills.  The first
replica to execute a position appends it, and every later one is checked
against it — a replica whose next entry (or written value) differs has
violated Agreement and raises :class:`~repro.errors.AgreementViolation` on
the spot, in every run.

Stage 3 executes one decided batch at a time, and every executor of a batch
does the same thing with it, so what a batch does is an
:class:`ExecutionPlan`, computed once per batch and memoised in the ledger.
A store executes a plan with a few slice operations: check and extend the
ledger, answer the positions asked of it, move its cursor.  The check runs
once per plan and place: the plan remembers where it matched the ledger,
whose entries never change, so a later executor at that place skips it.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.types import READ, Transaction
from repro.errors import AgreementViolation


class ExecutionPlan:
    """What executing one batch does to any store, in order.

    Shared by every executor of the batch, so treated as immutable (the
    ledger only swaps an ``applied`` entry for an equal one).

    Attributes:
        transactions: The batch.
        ids: Transaction ids, in order.
        applied: ``(txn_id, key)`` of the writes, in order.
        write_values: The value each of those writes stores, in order.
        origins: ``origin replica -> positions`` of the transactions it received.
        first_positions: ``txn_id -> first position`` in the batch.
        read_values: ``position -> value`` of each read whose key an earlier
            write of the batch set.
        round_number: The round that executes the batch (memo lifetime).
        placed: ``(ledger, cursor, applied_at)`` where an executor found the
            batch's ids, writes and values in that ledger (``None`` before
            the first): the ledger's lists only grow and never change an
            entry, so a later executor at the same place skips the compare.
    """

    __slots__ = (
        "transactions",
        "ids",
        "applied",
        "write_values",
        "origins",
        "first_positions",
        "read_values",
        "round_number",
        "placed",
    )

    def __init__(self, transactions: Sequence[Transaction], round_number: int = 0) -> None:
        ids: List[str] = []
        applied: List[Tuple[str, str]] = []
        write_values: List[str] = []
        last_values: Dict[str, str] = {}
        origins: Dict[str, List[int]] = {}
        first_positions: Dict[str, int] = {}
        read_values: Dict[int, str] = {}
        for position, transaction in enumerate(transactions):
            txn_id = transaction.txn_id
            key = transaction.key
            ids.append(txn_id)
            first_positions.setdefault(txn_id, position)
            origins.setdefault(transaction.origin_replica, []).append(position)
            if transaction.op == READ:
                if key in last_values:
                    read_values[position] = last_values[key]
            else:
                value = transaction.value or ""
                applied.append((txn_id, key))
                write_values.append(value)
                last_values[key] = value
        self.transactions = transactions
        self.ids = ids
        self.applied = applied
        self.write_values = write_values
        self.origins = origins
        self.first_positions = first_positions
        self.read_values = read_values
        self.round_number = round_number
        self.placed: Optional[Tuple["ExecutionLedger", int, int]] = None


class ExecutionLedger:
    """The total order executed by the replicas that share this ledger.

    Attributes:
        ids: Transaction ids in execution order (reads and writes).
        index: ``txn_id -> first position in ids``.
        applied: ``(txn_id, key)`` of the writes, in execution order.
        values: The value each write of ``applied`` stores.
        last_write: ``key -> position in applied`` of its latest write.
        previous_write: Per write, the position of the previous write of
            the same key (``-1`` for a key's first write).
        round_starts: ``round -> (len(ids), len(applied))`` when the first
            replica began executing that round; a joining replica, which
            adopts a snapshot taken at a round boundary, starts there.
        plans: ``id(batch) -> ExecutionPlan`` of the batches being executed;
            a plan holds its batch, so the id cannot be reused while it is
            memoised.  Plans of rounds before the previous one are dropped.
    """

    __slots__ = (
        "ids", "index", "applied", "values", "last_write", "previous_write", "round_starts", "plans"
    )

    def __init__(self) -> None:
        self.ids: List[str] = []
        self.index: Dict[str, int] = {}
        self.applied: List[Tuple[str, str]] = []
        self.values: List[str] = []
        self.last_write: Dict[str, int] = {}
        self.previous_write = array("q")
        self.round_starts: Dict[int, Tuple[int, int]] = {}
        self.plans: Dict[int, ExecutionPlan] = {}

    def plan(self, transactions: Sequence[Transaction], round_number: int) -> ExecutionPlan:
        """The plan of a decided batch, shared by every executor of that batch object."""
        plan = self.plans.get(id(transactions))
        if plan is None:
            plan = self.plans[id(transactions)] = ExecutionPlan(transactions, round_number)
        return plan

    def forget_plans(self, before_round: int) -> None:
        """Drop the plans made for rounds before ``before_round``."""
        plans = self.plans
        for key in [key for key, plan in plans.items() if plan.round_number < before_round]:
            del plans[key]

    def record_writes(self, start: int, writes: List[Tuple[str, str]], values: List[str]) -> None:
        """Check ``writes`` and their ``values`` placed at ``start``; append what is new.

        A new write of a key the ledger already holds is stored with the
        ledger's copy of the key, in ``writes`` too (so later executors
        compare identical entries): one string per key, however often it is
        written, outlives the transactions.

        Raises :class:`AgreementViolation` (before changing anything) at the
        first position where the ledger holds another write or value.
        """
        held = _check(self.applied, start, writes, "applied-write")
        _check(self.values, start, values, "write-value")
        applied, last_write, previous_write = self.applied, self.last_write, self.previous_write
        for offset in range(held, len(writes)):
            txn_id, key = writes[offset]
            previous = last_write.get(key, -1)
            if previous >= 0:
                writes[offset] = (txn_id, applied[previous][1])
            previous_write.append(previous)
            last_write[key] = len(applied)
            applied.append(writes[offset])
        self.values.extend(values[held:])


def _check(log: list, start: int, entries: list, what: str) -> int:
    """How many of ``entries`` placed at ``start`` ``log`` already holds.

    Raises :class:`AgreementViolation` naming the first ledger position
    where ``log`` holds something else.
    """
    known = log[start : start + len(entries)]
    for offset, (ours, theirs) in enumerate(zip(entries, known)):
        if ours != theirs:
            raise AgreementViolation(
                f"{what} position {start + offset}: this replica executes "
                f"{ours!r} where another executed {theirs!r}"
            )
    return len(known)


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
    """A deterministic key-value state machine over a window of the ledger.

    Its state is its base dict updated, in order, with the writes of its
    window from the base's position on; the values live in the ledger.

    Attributes:
        applied: Number of write transactions applied.
        ledger: The shared execution order (private when none is given).
    """

    __slots__ = ("applied", "ledger", "_start", "_cursor", "_applied_start", "_base", "_base_at")

    def __init__(self, ledger: Optional[ExecutionLedger] = None) -> None:
        self.applied = 0
        self.ledger = ledger if ledger is not None else ExecutionLedger()
        self._start = 0
        self._cursor = 0
        self._applied_start = 0
        #: The state at write position ``_base_at``; only a restored
        #: snapshot or an assigned ``data`` fills it.
        self._base: Dict[str, str] = {}
        self._base_at = 0

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
        ledger = self.ledger
        starts = ledger.round_starts
        if round_number not in starts:
            starts[round_number] = (self._cursor, self._applied_start + self.applied)
            ledger.forget_plans(round_number - 1)

    def execute(self, plan: ExecutionPlan, positions: Iterable[int] = ()) -> List[Optional[str]]:
        """Execute the next batch of the total order.

        Returns the response value of each transaction at ``positions``: a
        write answers with its value, a read with what it reads.
        """
        ledger = self.ledger
        cursor = self._cursor
        entries = plan.ids
        writes = plan.applied
        applied_at = self._applied_start + self.applied
        place = (ledger, cursor, applied_at)
        if plan.placed != place:
            # The plan's first executor at this place: one C-level slice
            # comparison per log; only the batch's first executor in the
            # ledger (or a diverging one) takes the slow path.
            ids = ledger.ids
            if ids[cursor : cursor + len(entries)] != entries:
                held = _check(ids, cursor, entries, "execution")
                ids.extend(entries[held:])
                index = ledger.index
                for offset in range(held, len(entries)):
                    index.setdefault(entries[offset], cursor + offset)
            stop = applied_at + len(writes)
            if (
                ledger.applied[applied_at:stop] != writes
                or ledger.values[applied_at:stop] != plan.write_values
            ):
                ledger.record_writes(applied_at, writes, plan.write_values)
            plan.placed = place
        self._cursor = cursor + len(entries)
        transactions = plan.transactions
        read_values = plan.read_values
        values: List[Optional[str]] = []
        for position in positions:
            transaction = transactions[position]
            if transaction.op != READ:
                values.append(transaction.value)
            elif position in read_values:
                values.append(read_values[position])
            else:
                values.append(self.read(transaction.key))
        self.applied += len(writes)
        return values

    def read(self, key: str) -> Optional[str]:
        """Read a key without going through a transaction."""
        ledger = self.ledger
        position = ledger.last_write.get(key, -1)
        stop = self._applied_start + self.applied
        previous_write = ledger.previous_write
        while position >= stop:
            position = previous_write[position]
        if position >= self._base_at:
            return ledger.values[position]
        return self._base.get(key)

    def snapshot(self) -> Dict[str, str]:
        """A copy of the current data, used for ``CurrState`` transfers.

        Its keys are in the order a dict updated with each write in turn
        would hold them.
        """
        data = dict(self._base)
        start, stop = self._base_at, self._applied_start + self.applied
        if start < stop:
            ledger = self.ledger
            data.update(zip(map(itemgetter(1), ledger.applied[start:stop]), ledger.values[start:stop]))
        return data

    @property
    def data(self) -> Dict[str, str]:
        """The current key/value mapping (the base dict itself while no write followed it)."""
        if self._base_at == self._applied_start + self.applied:
            return self._base
        return self.snapshot()

    @data.setter
    def data(self, data: Dict[str, str]) -> None:
        self._base = data
        self._base_at = self._applied_start + self.applied

    def restore(self, snapshot: Dict[str, str], round_number: Optional[int] = None) -> None:
        """Replace the state with a received snapshot (joining replicas).

        With ``round_number`` — the round the snapshot's holder executes
        next — the store's history restarts there: its logs are empty and
        its next entry is that round's first.
        """
        if round_number is not None:
            ledger = self.ledger
            position, applied_position = ledger.round_starts.get(
                round_number, (len(ledger.ids), len(ledger.applied))
            )
            self._start = self._cursor = position
            self._applied_start = applied_position
            self.applied = 0
        self.data = dict(snapshot)


__all__ = ["ExecutionLedger", "ExecutionPlan", "KeyValueStore", "LedgerView"]
