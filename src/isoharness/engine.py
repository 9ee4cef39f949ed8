"""Reference lock-based transaction engine.

Locking policy, which is the whole point of this module:

  * Item writes (W, RW, I, D, and each row of a set update) take LONG
    exclusive locks at every level above RU.
  * Item reads take SHORT shared locks at RC and LONG at RR/SR.
  * Predicate reads take a shared lock on the predicate (or on key ranges in
    incremental and table scope) that is SHORT at RC/RR and LONG at SR.
    Every predicate read (PR rows, PR count(*), SS) is one scan,
    ``Engine._scan``, that walks the matches once per fetch; a count(*)
    and SS read through a cursor of their own that is never stored.
  * RU transactions take no locks at all and are read only; write attempts
    fail unless ``ru_writes_allowed`` is set (that flag exists to reproduce
    permissive behavior observed in real systems).

LONG locks are released only at commit/rollback (strict two-phase); SHORT
locks are released when the acquiring operation returns.  A shared predicate
or range lock conflicts with an exclusive item lock when the written row's
before- or after-image satisfies the predicate / falls in the range.  Lock
grants are FIFO per resource; a request never overtakes an earlier
conflicting waiter.  Incremental range locks follow the key order; table
scope (``LockScope.TABLE``) is incremental scope without a usable key index,
whose first fetch locks the whole key range.

A lock request and its grant are one record (:class:`LockRequest`): once
granted, the request itself is held in the lock table.  Every write to an
existing row (W, RW, D, and each row of a set update) takes one path,
``Engine._write_row``: the LONG exclusive lock, then a re-check of the
row, a new ``Row`` put in its place (a tombstoned one for a delete) and an
undo entry whose before image is the old ``Row`` itself.  No write edits a
``Row``: the table's rows start as the canonical rows every table shares.

The operations that can wait for a lock are generators: ``read_item``,
``write_item``, ``rw_item``, ``delete_item``, ``insert_item``,
``predicate_read``, ``set_update`` and ``set_select``.  Each yields the
:class:`LockRequest` it parks on and returns its result when it ends; the
caller resumes it once the engine has settled ``LockRequest.outcome``: the
request was granted, or its transaction was chosen as a deadlock victim
(youngest in the cycle, by begin order) and rolled back by the operation
that found the cycle.  A parked operation's frame keeps what a call stack
would: a set update's position, a scan's cursor and its short grants.  A
generator closed while parked releases nothing.  ``begin``, ``commit`` and
``rollback`` never park and are plain calls.

Every effect (begin, op applied, request parked or settled, commit, abort)
takes the next engine event number; ``TxnState.last_event`` is the latest
one of each transaction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from .dataset import CanonicalTable, Row, eval_predicate
from .notation import IsolationLevel, SCHEMA_COLUMNS, UnknownColumn

if TYPE_CHECKING:
    from .notation import PredicateExpr


class EngineError(Exception):
    """Base engine failure; ``code`` is the stable status name."""

    code = "EngineError"


class DuplicateTxn(EngineError):
    code = "DuplicateTxn"


class UnknownTxn(EngineError):
    code = "UnknownTxn"


class RowNotFound(EngineError):
    code = "RowNotFound"


class ReadOnlyViolation(EngineError):
    code = "ReadOnlyViolation"


class DuplicateKey(EngineError):
    code = "DuplicateKey"


class CursorLimitExceeded(EngineError):
    code = "CursorLimitExceeded"


class InvalidWrite(EngineError):
    code = "InvalidWrite"


class DeadlockAbort(EngineError):
    """Raised in the victim's operation after its transaction was rolled back."""

    code = "Deadlock"


class LockMode(Enum):
    S = "S"
    X = "X"


class LockDuration(Enum):
    SHORT = "SHORT"
    LONG = "LONG"


class LockScope(Enum):
    PREDICATE = "PREDICATE"
    INCREMENTAL_RANGE = "INCREMENTAL_RANGE"
    TABLE = "TABLE"  # incremental with no usable key index: one range over everything


class Strictness(Enum):
    PER_LEVEL = "PER_LEVEL"
    STRICT_ALL_LONG = "STRICT_ALL_LONG"


class TxnStatus(Enum):
    ACTIVE = "ACTIVE"
    BLOCKED = "BLOCKED"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass(frozen=True)
class ItemResource:
    reckey: int


@dataclass(frozen=True)
class PredicateResource:
    predicate: PredicateExpr


@dataclass(frozen=True)
class RangeResource:
    """Key range (low, high]: low exclusive, high inclusive."""

    low: float
    high: float

    def contains(self, reckey: int) -> bool:
        return self.low < reckey <= self.high


@dataclass
class WriteImage:
    reckey: int
    before: Optional[Row]  # None means ABSENT (insert)
    after: Optional[Row]  # None means ABSENT (delete)

    def value_dicts(self) -> list:
        out = []
        if self.before is not None:
            out.append(self.before.values)
        if self.after is not None:
            out.append(self.after.values)
        return out


class _Outcome(Enum):
    GRANTED = "GRANTED"
    DEADLOCK = "DEADLOCK"


@dataclass
class LockRequest:
    """A lock request; once granted, the same object is the grant held in
    the lock table until it is released."""

    txn: int
    resource: object
    mode: LockMode
    duration: LockDuration
    # Intended-write images, set while an exclusive item lock has been
    # granted but the write not yet applied; afterwards the undo log is
    # authoritative.
    intent: Optional[Callable[[], list]] = None
    # Set once: granted, or the transaction was picked as a deadlock victim.
    outcome: Optional[_Outcome] = None


@dataclass
class CursorState:
    position: int = 0  # last reckey returned
    frontier: float = 0.0  # highest key covered by range locks (incremental)
    exhausted: bool = False


MAX_CURSORS_PER_TXN = 8


@dataclass
class TxnState:
    txn: int
    level: IsolationLevel
    begin_seq: int
    status: TxnStatus = TxnStatus.ACTIVE
    cursors: Dict[str, CursorState] = field(default_factory=dict)
    undo: List[WriteImage] = field(default_factory=list)
    # The same images by reckey, so a conflict check reads only its row's.
    undo_by_key: Dict[int, List[WriteImage]] = field(default_factory=dict)
    last_event: int = 0

    def log_undo(self, image: WriteImage) -> None:
        self.undo.append(image)
        self.undo_by_key.setdefault(image.reckey, []).append(image)

    def clear_undo(self) -> None:
        self.undo.clear()
        self.undo_by_key.clear()


@dataclass
class EngineConfig:
    lock_scope: LockScope = LockScope.PREDICATE
    strictness: Strictness = Strictness.PER_LEVEL
    ru_writes_allowed: bool = False


@dataclass
class LockEvent:
    """Acquire/release trace entry, used by the two-phase-locking checks."""

    seq: int
    txn: int
    action: str  # ACQUIRE | RELEASE
    resource: object
    mode: LockMode
    duration: LockDuration
    reason: str = ""  # for RELEASE: OP_END | TERMINATION


_INF = math.inf


def _add_to_recval(delta: int) -> Callable[[dict], dict]:
    """The ``after_of`` of a recval increment, for :meth:`Engine._write_row`."""
    return lambda values: {**values, "recval": values["recval"] + delta}


class Engine:
    def __init__(self, table: CanonicalTable, config: Optional[EngineConfig] = None):
        self.table = table
        self.config = config or EngineConfig()
        self.txns: Dict[int, TxnState] = {}
        self.lock_events: List[LockEvent] = []
        # Grants keyed by (txn, resource, mode), in grant order, and again
        # by what can conflict with them: an exclusive grant is an item lock
        # and a row has at most one, so those go by reckey; the shared ones,
        # which only an exclusive request can meet, are kept apart.
        self._grants: Dict[tuple, LockRequest] = {}
        self._x_grants: Dict[int, LockRequest] = {}
        self._s_grants: Dict[tuple, LockRequest] = {}
        self._waiters: List[LockRequest] = []
        self._begin_counter = 0
        self._event_counter = 0

    # ------------------------------------------------------------------ txns

    def begin(self, txn: int, level: IsolationLevel) -> TxnState:
        if txn in self.txns:
            raise DuplicateTxn(f"transaction {txn} already began")
        self._begin_counter += 1
        state = TxnState(txn=txn, level=level, begin_seq=self._begin_counter)
        self.txns[txn] = state
        self._stamp(state)
        return state

    def commit(self, txn: int) -> None:
        st = self._require_active(txn)
        if st.status is not TxnStatus.ACTIVE:
            raise UnknownTxn(f"transaction {txn} has a pending operation")
        for img in st.undo:
            if img.after is None:  # delete becomes permanent
                row = self.table.rows.get(img.reckey)
                if row is not None and row.tombstone:
                    self.table.drop(img.reckey)
        st.clear_undo()
        st.cursors.clear()
        st.status = TxnStatus.COMMITTED
        self._stamp(st)
        self._release_all(st, "TERMINATION")

    def rollback(self, txn: int) -> None:
        st = self._require_active(txn)
        if st.status is not TxnStatus.ACTIVE:
            raise UnknownTxn(f"transaction {txn} has a pending operation")
        self._abort(st)

    def _abort(self, st: TxnState) -> None:
        for img in reversed(st.undo):
            if img.before is None:
                self.table.drop(img.reckey)
            else:
                self.table.put(img.reckey, img.before)
        st.clear_undo()
        st.cursors.clear()
        st.status = TxnStatus.ABORTED
        self._stamp(st)
        self._release_all(st, "TERMINATION")

    def _require_active(self, txn: int) -> TxnState:
        """The transaction's state, stamped so an operation that fails
        without an effect still has an event number of its own."""
        st = self.txns.get(txn)
        if st is None:
            raise UnknownTxn(f"transaction {txn} never began")
        self._stamp(st)
        if st.status not in (TxnStatus.ACTIVE, TxnStatus.BLOCKED):
            raise UnknownTxn(f"transaction {txn} is {st.status.value}")
        return st

    # ------------------------------------------------------------- durations

    def _read_duration(self, level: IsolationLevel, predicate: bool) -> LockDuration:
        """SHORT for a read at RC, and for a predicate read at RR too; LONG
        otherwise, and always when strictness makes every lock LONG."""
        short = level == IsolationLevel.RC or (predicate and level == IsolationLevel.RR)
        if short and self.config.strictness is Strictness.PER_LEVEL:
            return LockDuration.SHORT
        return LockDuration.LONG

    # ----------------------------------------------------------------- locks

    def _images_of(self, entry) -> list:
        """Value dicts an exclusive item lock stands for (realized + intended)."""
        out = []
        holder = self.txns.get(entry.txn)
        if holder is not None:
            for img in holder.undo_by_key.get(entry.resource.reckey, ()):
                out.extend(img.value_dicts())
        if entry.intent is not None:
            out.extend(entry.intent())
        return out

    def _conflict(self, a, b) -> bool:
        """True when two lock entries (grants or requests) are incompatible."""
        if a.txn == b.txn:
            return False
        if a.mode is LockMode.S and b.mode is LockMode.S:
            return False
        x, other = (a, b) if a.mode is LockMode.X else (b, a)
        key = x.resource.reckey  # X locks are always item locks
        res = other.resource
        if isinstance(res, ItemResource):
            return res.reckey == key
        if isinstance(res, RangeResource):
            return res.contains(key)
        images = self._images_of(x)
        return any(res.predicate.holds(values) for values in images)

    def _stamp(self, st: TxnState) -> int:
        self._event_counter += 1
        st.last_event = self._event_counter
        return self._event_counter

    def _log(self, txn, action, resource, mode, duration, reason=""):
        self._event_counter += 1
        self.lock_events.append(
            LockEvent(self._event_counter, txn, action, resource, mode, duration, reason)
        )

    def _grant_now(self, req: LockRequest) -> LockRequest:
        key = (req.txn, req.resource, req.mode)
        self._grants[key] = req
        if req.mode is LockMode.X:
            self._x_grants[req.resource.reckey] = req
        else:
            self._s_grants[key] = req
        self._log(req.txn, "ACQUIRE", req.resource, req.mode, req.duration)
        req.outcome = _Outcome.GRANTED
        return req

    def _rivals(self, req: LockRequest):
        """The grants that can conflict with ``req``: S/S never conflict, and
        an item lock meets only the exclusive grant on its own row."""
        res = req.resource
        if not isinstance(res, ItemResource):  # predicate and range locks are shared
            return self._x_grants.values()
        x = self._x_grants.get(res.reckey)
        rivals = [] if x is None else [x]
        if req.mode is LockMode.X:
            rivals.extend(self._s_grants.values())
        return rivals

    def _blockers(self, req: LockRequest, queue_prefix) -> set:
        out = set()
        for g in self._rivals(req):
            if g.txn not in out and self._conflict(req, g):
                out.add(g.txn)
        for other in queue_prefix:
            if other.outcome is None and other.txn not in out and self._conflict(req, other):
                out.add(other.txn)
        return out

    def _grant_pass(self) -> None:
        """FIFO scan of the wait queue, granting whatever no longer conflicts."""
        remaining = []
        for req in self._waiters:
            if req.outcome is not None:
                continue
            if self._blockers(req, remaining):
                remaining.append(req)
                continue
            self._grant_now(req)
            st = self.txns[req.txn]
            if st.status is TxnStatus.BLOCKED:  # parked, not the requester itself
                st.status = TxnStatus.ACTIVE
                self._stamp(st)  # settled: the stamp orders its resumption
        self._waiters = remaining

    def _release_all(self, st: TxnState, reason: str) -> None:
        kept = {}
        for key, g in self._grants.items():
            if g.txn == st.txn:
                self._log(g.txn, "RELEASE", g.resource, g.mode, g.duration, reason)
            else:
                kept[key] = g
        self._grants = kept
        self._x_grants = {k: g for k, g in self._x_grants.items() if g.txn != st.txn}
        self._s_grants = {k: g for k, g in self._s_grants.items() if g.txn != st.txn}
        self._grant_pass()

    def _release_grants(self, grants, reason: str) -> None:
        if not grants:
            return
        for g in grants:
            key = (g.txn, g.resource, g.mode)
            if self._grants.get(key) is g:
                del self._grants[key]
                if g.mode is LockMode.X:
                    del self._x_grants[g.resource.reckey]
                else:
                    del self._s_grants[key]
                self._log(g.txn, "RELEASE", g.resource, g.mode, g.duration, reason)
        self._grant_pass()

    def _waits_for_edges(self) -> dict:
        edges: Dict[int, set] = {}
        for i, req in enumerate(self._waiters):
            if req.outcome is not None:
                continue
            blockers = self._blockers(req, self._waiters[:i])
            if blockers:
                edges[req.txn] = blockers
        return edges

    def _cycle_through(self, start: int, edges: dict) -> Optional[tuple]:
        stack = [(start, (start,))]
        visited = set()
        while stack:
            node, path = stack.pop()
            for nxt in edges.get(node, ()):
                if nxt == start:
                    return path
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, path + (nxt,)))
        return None

    def _resolve_deadlocks(self, requester: LockRequest) -> None:
        """Break every wait cycle through the requester by rolling back the
        youngest member of each; the rollback may grant the request."""
        while requester.outcome is None:
            cycle = self._cycle_through(requester.txn, self._waits_for_edges())
            if cycle is None:
                return
            victim = self.txns[max(cycle, key=lambda t: self.txns[t].begin_seq)]
            doomed = [r for r in self._waiters if r.txn == victim.txn]
            self._waiters = [r for r in self._waiters if r.txn != victim.txn]
            if victim.status is TxnStatus.BLOCKED:
                self._stamp(victim)  # settled, like a grant
            self._abort(victim)
            for req in doomed:
                req.outcome = _Outcome.DEADLOCK

    def _acquire(self, st: TxnState, resource, mode: LockMode, duration: LockDuration,
                 intent: Optional[Callable[[], list]] = None,
                 ) -> Generator[LockRequest, None, Tuple[LockRequest, bool]]:
        """Acquire a lock, parking as needed: yields the queued request until
        its outcome is settled.

        Returns (grant, fresh): ``fresh`` is False when an identical grant was
        already held (nothing to release at op end).  Raises
        :class:`DeadlockAbort` if the transaction was picked as a deadlock
        victim, by then already rolled back.
        """
        held = self._grants.get((st.txn, resource, mode))
        if held is not None:
            if intent is not None:
                held.intent = intent
            return held, False
        req = LockRequest(st.txn, resource, mode, duration, intent)
        if not self._blockers(req, self._waiters):
            return self._grant_now(req), True
        self._waiters.append(req)
        self._resolve_deadlocks(req)
        if req.outcome is None:
            st.status = TxnStatus.BLOCKED
            self._stamp(st)  # parked: the stamp orders its BLOCKED record
            yield req
        if req.outcome is _Outcome.DEADLOCK:
            raise DeadlockAbort(f"transaction {st.txn} chosen as deadlock victim")
        return req, True

    def _read_lock(self, st: TxnState, resource, duration: LockDuration, short: list):
        """Acquire a shared lock; a fresh SHORT one is added to ``short``, the
        grants the operation releases when it ends."""
        grant, fresh = yield from self._acquire(st, resource, LockMode.S, duration)
        if fresh and grant.duration is LockDuration.SHORT:
            short.append(grant)

    # ------------------------------------------------------------ inspection

    def request_state(self, txn: int) -> Optional[str]:
        """'WAITING' while the transaction has a pending lock request."""
        for req in self._waiters:
            if req.txn == txn and req.outcome is None:
                return "WAITING"
        return None

    def held_locks(self, txn: int) -> list:
        return [g for g in self._grants.values() if g.txn == txn]

    # ------------------------------------------------------------- item ops

    def _check_writable(self, st: TxnState) -> None:
        if st.level == IsolationLevel.RU and not self.config.ru_writes_allowed:
            raise ReadOnlyViolation(f"transaction {st.txn} is READ UNCOMMITTED (read only)")

    def _visible_row(self, st: TxnState, reckey: int) -> Row:
        """Row object for pre-checks; own tombstones read as missing."""
        row = self.table.rows.get(reckey)
        if row is None:
            raise RowNotFound(f"no row with reckey {reckey}")
        if row.tombstone and self._tombstoned_by(st, reckey):
            raise RowNotFound(f"row {reckey} deleted by this transaction")
        return row

    def _tombstoned_by(self, st: TxnState, reckey: int) -> bool:
        images = st.undo_by_key.get(reckey)
        return images is not None and images[-1].after is None

    def read_item(self, txn: int, reckey: int,
                  column: str = "recval") -> Generator[LockRequest, None, int]:
        if column not in SCHEMA_COLUMNS:
            raise UnknownColumn(column)
        st = self._require_active(txn)
        row = self._visible_row(st, reckey)
        if st.level == IsolationLevel.RU:
            if row.tombstone:
                raise RowNotFound(f"row {reckey} is deleted (uncommitted)")
            return row.values[column]
        short: list = []
        try:
            yield from self._read_lock(st, ItemResource(reckey),
                                       self._read_duration(st.level, predicate=False), short)
            self._stamp(st)
            row = self.table.rows.get(reckey)
            if row is None or row.tombstone:
                raise RowNotFound(f"no row with reckey {reckey}")
            return row.values[column]
        except GeneratorExit:  # closed while parked: the run is over, release nothing
            short.clear()
            raise
        finally:
            self._release_grants(short, "OP_END")

    def _write_row(self, st: TxnState, reckey: int, after_of: Callable[[dict], Optional[dict]],
                   predicate: Optional[PredicateExpr] = None,
                   ) -> Generator[LockRequest, None, Optional[WriteImage]]:
        """The one write path for existing rows: take the LONG exclusive lock,
        then, if the row is still there and still satisfies ``predicate``,
        apply ``after_of`` and log the undo image.  ``after_of`` maps the
        row's values to new ones, or to None for a delete.  Returns None when
        nothing was written."""

        def intent() -> list:
            row = self.table.rows.get(reckey)
            if row is None:
                return []
            after = after_of(row.values)
            return [row.values] if after is None else [row.values, after]

        grant, _ = yield from self._acquire(st, ItemResource(reckey), LockMode.X,
                                            LockDuration.LONG, intent)
        self._stamp(st)
        grant.intent = None
        row = self.table.rows.get(reckey)
        if row is None or row.tombstone or (
            predicate is not None and not eval_predicate(row, predicate)
        ):
            return None
        after = after_of(row.values)
        image = WriteImage(reckey, row, None if after is None else Row(after))
        # a delete leaves a tombstone over the old values until its commit
        self.table.put(reckey, image.after or Row(row.values, tombstone=True))
        st.log_undo(image)
        return image

    def _write_item(self, txn: int, reckey: int, after_of: Callable[[dict], Optional[dict]],
                    ) -> Generator[LockRequest, None, WriteImage]:
        """An item write (W, RW, D) through :meth:`_write_row`."""
        st = self._require_active(txn)
        self._check_writable(st)
        self._visible_row(st, reckey)
        image = yield from self._write_row(st, reckey, after_of)
        if image is None:
            raise RowNotFound(f"no row with reckey {reckey}")
        return image

    def write_item(self, txn: int, reckey: int, column_values: Optional[dict] = None,
                   ) -> Generator[LockRequest, None, WriteImage]:
        """Update a row; ``column_values`` None means the default recval += 1."""
        if column_values is None:
            return (yield from self._write_item(txn, reckey, _add_to_recval(1)))
        for col in column_values:
            if col not in SCHEMA_COLUMNS:
                raise UnknownColumn(col)
        if "reckey" in column_values:
            raise InvalidWrite("primary key cannot be updated")
        return (yield from self._write_item(txn, reckey, lambda values: {**values, **column_values}))

    def rw_item(self, txn: int, reckey: int) -> Generator[LockRequest, None, Tuple[int, WriteImage]]:
        """Indivisible read-then-increment of recval; returns the value read."""
        image = yield from self._write_item(txn, reckey, _add_to_recval(1))
        return image.before.values["recval"], image

    def _default_insert_values(self, reckey: int) -> dict:
        values = {"reckey": reckey, "recval": reckey * 100}
        for col in SCHEMA_COLUMNS[2:]:
            values[col] = 0
        return values

    def _allocate_reckey(self) -> int:
        j = 1
        while True:
            key = 100 * j + 50
            if key not in self.table.rows:
                return key
            j += 1

    def insert_item(self, txn: int, reckey: Optional[int] = None, column_values: Optional[dict] = None,
                    ) -> Generator[LockRequest, None, Tuple[int, WriteImage]]:
        """Insert a row; reckey None allocates the lowest free 100j+50 key.

        Unspecified columns default to recval = reckey*100 and 0 elsewhere.
        """
        column_values = dict(column_values or {})
        for col in column_values:
            if col not in SCHEMA_COLUMNS:
                raise UnknownColumn(col)
        explicit_key = reckey if reckey is not None else column_values.get("reckey")
        st = self._require_active(txn)
        self._check_writable(st)
        if explicit_key is None:
            key = self._allocate_reckey()
        else:
            key = int(explicit_key)
            if key < 1:
                raise InvalidWrite("reckey must be positive")
        column_values["reckey"] = key
        values = self._default_insert_values(key)
        values.update(column_values)
        existing = self.table.rows.get(key)
        reserve_now = existing is None
        if reserve_now:
            # Reserve the key as an invisible row so concurrent inserts
            # allocate elsewhere; visible once the lock is held.
            self.table.put(key, Row(values, tombstone=True))
            image = WriteImage(key, None, Row(values))
            st.log_undo(image)
        grant, _ = yield from self._acquire(
            st, ItemResource(key), LockMode.X, LockDuration.LONG,
            intent=(lambda: [values]) if not reserve_now else None,
        )
        self._stamp(st)
        grant.intent = None
        if reserve_now:
            self.table.put(key, image.after)
            return key, image
        existing = self.table.rows.get(key)
        if existing is not None and not existing.tombstone:
            raise DuplicateKey(f"reckey {key} already present")
        image = WriteImage(key, None, Row(values))
        self.table.put(key, image.after)
        st.log_undo(image)
        return key, image

    def delete_item(self, txn: int, reckey: int) -> Generator[LockRequest, None, WriteImage]:
        return (yield from self._write_item(txn, reckey, lambda values: None))

    # -------------------------------------------------------- predicate ops

    def _matches(self, predicate: PredicateExpr, after: int = 0):
        """Keys of the live rows above ``after`` that satisfy the predicate,
        ascending: one walk of the key list, started by index.  It stands
        while ``table.version`` is unchanged."""
        keys, rows, test = self.table.keys, self.table.rows, predicate.test
        return (key for i in range(bisect_right(keys, after), len(keys))
                if not (row := rows[(key := keys[i])]).tombstone and test(row.values))

    def _scan_lock_plan(self, st: TxnState, cursor: CursorState, to_key: float):
        """Next range resource needed to cover keys up to ``to_key``, or None."""
        if st.level == IsolationLevel.RU or self.config.lock_scope is LockScope.PREDICATE:
            return None
        # no usable index in table scope: the first fetch scans (and locks) everything
        high = _INF if self.config.lock_scope is LockScope.TABLE else to_key
        return RangeResource(cursor.frontier, high) if cursor.frontier < high else None

    def _scan(self, txn: int, pred_var: Optional[str], predicate: PredicateExpr,
              columns: Optional[tuple], row_limit, aggregate: Optional[str],
              ) -> Generator[LockRequest, None, list]:
        """The one predicate read, behind PR and SS: rows, or one aggregate
        row, from the cursor's position; with no ``pred_var``, from a cursor
        of its own that is never stored.  A fetch walks the matches once; a
        wait for a range lock lets it go on where it stopped unless the table
        changed meanwhile, and then it walks again from the cursor, so a row
        that changed is evaluated again.  An aggregate first locks the rest
        of the key range."""
        drain = row_limit == "all"
        st = self._require_active(txn)
        cursor = CursorState() if pred_var is None else st.cursors.get(pred_var)
        if cursor is None:
            if len(st.cursors) >= MAX_CURSORS_PER_TXN:
                raise CursorLimitExceeded(
                    f"transaction {txn} already has {MAX_CURSORS_PER_TXN} open cursors")
            cursor = st.cursors[pred_var] = CursorState()
        duration = self._read_duration(st.level, predicate=True)
        short: list = []
        try:
            # Predicate-scope locking: one shared lock on the predicate itself.
            if st.level != IsolationLevel.RU and self.config.lock_scope is LockScope.PREDICATE:
                yield from self._read_lock(st, PredicateResource(predicate), duration, short)
            need = self._scan_lock_plan(st, cursor, _INF)
            if need is not None and aggregate:
                yield from self._read_lock(st, need, duration, short)
                cursor.frontier, need = need.high, None
            walked, matches = self.table.version, self._matches(predicate, cursor.position)
            by_key = self.table.rows
            if aggregate:
                rows = [(sum(1 if aggregate == "count" else by_key[key].values["recval"]
                             for key in matches),)]
            elif need is None:  # no range left to lock: the walk never stops
                keys = list(islice(matches, None if drain else row_limit))
            else:  # stop at each match beyond the frontier to lock the range up to it
                keys, key = [], next(matches, _INF)
                while len(keys) != row_limit and (key < _INF or drain and cursor.frontier < _INF):
                    need = self._scan_lock_plan(st, cursor, key)
                    if need is None:
                        keys.append(key)
                        key = next(matches, _INF)
                        continue
                    yield from self._read_lock(st, need, duration, short)
                    cursor.frontier = need.high
                    if walked != self.table.version:  # the table changed during the wait
                        walked = self.table.version
                        matches = self._matches(predicate, keys[-1] if keys else cursor.position)
                        key = next(matches, _INF)
            if not aggregate:
                cursor.exhausted |= drain or len(keys) < row_limit
                cursor.position = keys[-1] if keys else cursor.position
                rows = [(key,) if columns == ("reckey",) else
                        (key, *(by_key[key].values[c] for c in columns)) for key in keys]
            self._stamp(st)
            if drain:
                st.cursors.pop(pred_var, None)
            return rows
        except GeneratorExit:  # closed while parked: the run is over, release nothing
            short.clear()
            raise
        finally:
            self._release_grants(short, "OP_END")

    def predicate_read(self, txn: int, pred_var: str, predicate: PredicateExpr,
                       columns: Optional[tuple] = ("recval",), row_limit=1,
                       aggregate: Optional[str] = None) -> Generator[LockRequest, None, list]:
        """Open-or-continue a cursor over the predicate and fetch rows.

        Returns the rows: (reckey, col...) tuples, or a single (count,) tuple
        for count(*).  row_limit "all" drains, closes, and frees the cursor; a
        numbered limit leaves the cursor allocated even when exhausted.  A
        count(*) reads the whole predicate, like ``SS``, and neither reads
        nor moves the variable's cursor.
        """
        return (yield from self._scan(txn, None if aggregate else pred_var, predicate,
                                      columns, row_limit, aggregate))

    def set_update(self, txn: int, predicate: PredicateExpr,
                   delta: int = 1) -> Generator[LockRequest, None, Tuple[int, List[WriteImage]]]:
        """recval += delta on every matching row; LONG X lock per row.

        Rows are visited in ascending reckey order, parking at the first
        conflict; matching is evaluated on current values at visit time.
        """
        st = self._require_active(txn)
        self._check_writable(st)
        after_of = _add_to_recval(delta)
        images: List[WriteImage] = []
        position = 0
        while True:
            key = next(self._matches(predicate, position), None)
            if key is None:
                self._stamp(st)
                break
            position = key
            image = yield from self._write_row(st, key, after_of, predicate)
            if image is not None:
                images.append(image)
        return len(images), images

    def set_select(self, txn: int, predicate: PredicateExpr,
                   aggregate: str = "sum") -> Generator[LockRequest, None, int]:
        """sum(recval) or count(*) over the predicate: a drain with no
        variable binding, locking like ``PR(P;count(*);all)``."""
        rows = yield from self._scan(txn, None, predicate, None, "all", aggregate)
        return rows[0][0]
