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

Each lock is released in one of two places.  A transaction keeps its SHORT
grants apart, and ``Engine._release_short`` releases them as the operation
that took them returns (``read_item`` and ``_scan``, on a ``RowNotFound``
too); ``Engine._end`` releases every other at commit/rollback (strict
two-phase).  A shared predicate or range lock conflicts with an exclusive
item lock when the written row's before- or after-image satisfies the
predicate / falls in the range.  Lock grants are FIFO per resource; a
request never overtakes an earlier conflicting waiter.  Incremental range
locks follow the key order; table scope (``LockScope.TABLE``) is
incremental scope without a usable key index, whose first fetch locks the
whole key range.

A lock request and its grant are one record (:class:`LockRequest`).  The
lock table hashes grants on the resource: a row's exclusive grant and shared
grants by reckey, shared predicate and range grants by resource; each
transaction keeps its own in grant order.  ``Engine._request`` grants a lock
or queues it in one plain call; only a queued request enters the generator
``Engine._park``.  Every write to an existing row (W, RW, D, each row of a
set update) takes one path, ``Engine._write_row``, once its LONG exclusive
lock is held: a new ``Row`` put in its place (a tombstoned one for a delete)
and an undo entry whose before image is the old ``Row``.  No write edits a
``Row``: the table's rows start as the canonical rows every table shares.

The operations that can wait for a lock are generators: ``read_item``,
``write_item``, ``rw_item``, ``delete_item``, ``insert_item``,
``predicate_read``, ``set_update`` and ``set_select``.  Each yields the
:class:`LockRequest` it parks on and returns its result when it ends; the
caller resumes it once the engine has settled ``LockRequest.outcome``: the
request was granted, or its transaction was chosen as a deadlock victim
(youngest in the cycle, by begin order) and rolled back by the operation
that found the cycle.  A parked operation's frame keeps what a call stack
would: a set update's position, a scan's cursor.  A generator closed while
parked runs no more code, so it releases nothing.  ``begin``, ``commit`` and
``rollback`` never park and are plain calls.

Every effect (begin, op applied, request parked or settled, commit, abort)
takes the next engine event number; ``TxnState.last_event`` is the latest
one of each transaction.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import count, islice
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from .dataset import CanonicalTable, Row
from .notation import IsolationLevel, SCHEMA_COLUMNS, UnknownColumn, schema_columns

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


#: Each reckey's item resource, made once: a lookup costs less than a new one.
_item = functools.lru_cache(maxsize=1 << 16)(ItemResource)


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


@dataclass(slots=True)
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


@dataclass(eq=False, slots=True)
class LockRequest:
    """A lock request; once granted, the same object is the grant held in
    the lock table until it is released.  Compared and hashed by identity."""

    txn: int
    resource: object
    mode: LockMode
    duration: LockDuration
    # While an exclusive item lock's write is not applied: the values it
    # stands for, from those of the row now at its key (None if none).
    intent: Optional[Callable[[Optional[dict]], list]] = None
    # Set once: granted, or the transaction was picked as a deadlock victim.
    outcome: Optional[_Outcome] = None


@dataclass
class CursorState:
    position: int = 0  # last reckey returned
    frontier: float = 0.0  # highest key covered by range locks (incremental)


MAX_CURSORS_PER_TXN = 8


@dataclass
class TxnState:
    txn: int
    level: IsolationLevel
    status: TxnStatus = TxnStatus.ACTIVE
    cursors: Dict[str, CursorState] = field(default_factory=dict)
    undo: List[WriteImage] = field(default_factory=list)
    # The same images by reckey, so a conflict check reads only its row's.
    undo_by_key: Dict[int, List[WriteImage]] = field(default_factory=dict)
    # The grants it holds, in grant order (a dict used as an ordered set).
    grants: Dict[LockRequest, None] = field(default_factory=dict)
    short: List[LockRequest] = field(default_factory=list)  # its SHORT grants, in grant order
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


@dataclass(slots=True)
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
    return lambda values: dict(values, recval=values["recval"] + delta)  # faster than {**values}


def _write_intent(after_of: Callable[[dict], Optional[dict]]) -> Callable[[Optional[dict]], list]:
    """The ``LockRequest.intent`` of a write through ``after_of``: the row's
    values, and its new ones unless the write deletes it."""
    return lambda values: ([] if values is None
                           else [v for v in (values, after_of(values)) if v is not None])


class Engine:
    def __init__(self, table: CanonicalTable, config: Optional[EngineConfig] = None):
        self.table = table
        self.config = config or EngineConfig()
        self.txns: Dict[int, TxnState] = {}  # in begin order; no entry is ever removed
        self.lock_events: List[LockEvent] = []
        # The lock table: exclusive grants by reckey, and shared ones by
        # reckey, or by resource for predicate and range locks, then by txn.
        self._x_grants: Dict[int, LockRequest] = {}
        self._s_items: Dict[int, Dict[int, LockRequest]] = {}
        self._s_sets: Dict[object, Dict[int, LockRequest]] = {}
        self._waiters: List[LockRequest] = []  # the unsettled requests, in request order
        self._events = count(1)  # the engine's event numbers, in order

    # ------------------------------------------------------------------ txns

    def begin(self, txn: int, level: IsolationLevel) -> TxnState:
        if txn in self.txns:
            raise DuplicateTxn(f"transaction {txn} already began")
        state = self.txns[txn] = TxnState(txn, level)
        state.last_event = next(self._events)
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
        self._end(st, TxnStatus.COMMITTED)

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
        self._end(st, TxnStatus.ABORTED)

    def _end(self, st: TxnState, status: TxnStatus) -> None:
        """End a transaction: drop its undo and cursors, stamp it, release every grant."""
        st.clear_undo()
        st.cursors.clear()
        st.status = status
        st.last_event = next(self._events)
        for g in st.grants:
            self._release(g, "TERMINATION")
        st.grants.clear()
        st.short.clear()
        self._grant_pass()

    def _require_active(self, txn: int) -> TxnState:
        """The transaction's state, stamped so an operation that fails
        without an effect still has an event number of its own."""
        st = self.txns.get(txn)
        if st is None:
            raise UnknownTxn(f"transaction {txn} never began")
        st.last_event = next(self._events)
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
        key = entry.resource.reckey
        out = []
        holder = self.txns.get(entry.txn)
        if holder is not None:
            for img in holder.undo_by_key.get(key, ()):
                out.extend(img.value_dicts())
        if entry.intent is not None:
            row = self.table.rows.get(key)
            out.extend(entry.intent(None if row is None else row.values))
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

    def _shared(self, res) -> Tuple[dict, object]:
        """Where the shared grants on ``res`` are kept: a dict, and their key."""
        return (self._s_items, res.reckey) if isinstance(res, ItemResource) else (self._s_sets, res)

    def _grant_now(self, st: TxnState, req: LockRequest) -> LockRequest:
        if req.mode is LockMode.X:
            self._x_grants[req.resource.reckey] = req
        else:
            table, key = self._shared(req.resource)
            table.setdefault(key, {})[req.txn] = req
        st.grants[req] = None
        if req.duration is LockDuration.SHORT:
            st.short.append(req)
        self.lock_events.append(LockEvent(next(self._events), req.txn, "ACQUIRE", req.resource,
                                          req.mode, req.duration))
        req.outcome = _Outcome.GRANTED
        return req

    def _release(self, grant: LockRequest, reason: str) -> None:
        """Take a grant out of the lock table (not its holder's) and log it."""
        if grant.mode is LockMode.X:
            del self._x_grants[grant.resource.reckey]
        else:
            table, key = self._shared(grant.resource)
            del table[key][grant.txn]
            if not table[key]:
                del table[key]
        self.lock_events.append(LockEvent(next(self._events), grant.txn, "RELEASE", grant.resource,
                                          grant.mode, grant.duration, reason))

    def _rivals(self, req: LockRequest):
        """The grants that can conflict with ``req``: S/S never conflict; an item
        lock meets its row's grants and, if exclusive, predicate and range ones."""
        res = req.resource
        if not isinstance(res, ItemResource):  # predicate and range locks are shared
            return self._x_grants.values()
        x = self._x_grants.get(res.reckey)
        rivals = [] if x is None else [x]
        if req.mode is LockMode.X:
            for shared in (self._s_items.get(res.reckey, {}), *self._s_sets.values()):
                rivals.extend(shared.values())
        return rivals

    def _blockers(self, req: LockRequest, queue_prefix) -> set:
        out = set()
        for g in self._rivals(req):
            if g.txn not in out and self._conflict(req, g):
                out.add(g.txn)
        for other in queue_prefix:
            if other.txn not in out and self._conflict(req, other):
                out.add(other.txn)
        return out

    def _grant_pass(self) -> None:
        """FIFO scan of the wait queue, granting whatever no longer conflicts."""
        remaining = []
        for req in self._waiters:
            if self._blockers(req, remaining):
                remaining.append(req)
                continue
            st = self.txns[req.txn]
            self._grant_now(st, req)
            if st.status is TxnStatus.BLOCKED:  # parked, not the requester itself
                st.status = TxnStatus.ACTIVE
                st.last_event = next(self._events)  # settled: the stamp orders its resumption
        self._waiters = remaining

    def _release_short(self, st: TxnState) -> None:
        """Release the SHORT grants of the operation that is ending, if any."""
        if st.short:
            for g in st.short:
                del st.grants[g]
                self._release(g, "OP_END")
            st.short.clear()
            self._grant_pass()

    def _waits_for_edges(self) -> dict:
        edges: Dict[int, set] = {}
        for i, req in enumerate(self._waiters):
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
            victim = self.txns[next(t for t in reversed(self.txns) if t in cycle)]
            doomed = [r for r in self._waiters if r.txn == victim.txn]
            self._waiters = [r for r in self._waiters if r.txn != victim.txn]
            if victim.status is TxnStatus.BLOCKED:
                victim.last_event = next(self._events)  # settled, like a grant
            self._abort(victim)
            for req in doomed:
                req.outcome = _Outcome.DEADLOCK

    def _request(self, st: TxnState, resource, mode: LockMode, duration: LockDuration,
                 intent: Optional[Callable[[Optional[dict]], list]] = None) -> LockRequest:
        """Grant a lock, or queue the request, in one plain call: returns the
        grant (or the transaction's own, held already), else the queued
        request, for :meth:`_park`.  Queuing breaks any wait cycle it closes,
        which may grant it or pick its own transaction as the victim."""
        if mode is LockMode.X:  # an item lock, and its row has at most one
            held = self._x_grants.get(resource.reckey)
            # nothing on the row, and no predicate or range grant: no rival
            free = held is None and resource.reckey not in self._s_items and not self._s_sets
        else:
            table, key = self._shared(resource)
            held, free = table.get(key, {}).get(st.txn), False
        if held is not None and held.txn == st.txn:
            return held
        req = LockRequest(st.txn, resource, mode, duration, intent)
        if free and not self._waiters or not self._blockers(req, self._waiters):
            return self._grant_now(st, req)
        self._waiters.append(req)
        self._resolve_deadlocks(req)
        return req

    def _park(self, st: TxnState, req: LockRequest) -> Generator[LockRequest, None, None]:
        """The rest of a queued request: yields it until it is settled; raises
        :class:`DeadlockAbort` if its transaction was the victim, rolled back."""
        if req.outcome is None:
            st.status = TxnStatus.BLOCKED
            st.last_event = next(self._events)  # parked: the stamp orders its BLOCKED record
            yield req
        if req.outcome is _Outcome.DEADLOCK:
            raise DeadlockAbort(f"transaction {st.txn} chosen as deadlock victim")

    # ------------------------------------------------------------ inspection

    def request_state(self, txn: int) -> Optional[str]:
        """'WAITING' while the transaction has a pending lock request."""
        return "WAITING" if any(req.txn == txn for req in self._waiters) else None

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
        grant = self._request(st, _item(reckey), LockMode.S, self._read_duration(st.level, predicate=False))
        if grant.outcome is not _Outcome.GRANTED:
            yield from self._park(st, grant)
        st.last_event = next(self._events)
        row = self.table.rows.get(reckey)
        self._release_short(st)
        if row is None or row.tombstone:
            raise RowNotFound(f"no row with reckey {reckey}")
        return row.values[column]

    def _write_row(self, st: TxnState, grant: LockRequest, after_of: Callable[[dict], Optional[dict]],
                   predicate: Optional[PredicateExpr] = None) -> Optional[WriteImage]:
        """The one write path for existing rows, once ``grant``, the row's
        LONG exclusive lock, is held: if the row is still there and still
        satisfies ``predicate``, apply ``after_of`` and log the undo image.
        ``after_of`` maps the row's values to new ones, or to None for a
        delete.  Returns None when nothing was written."""
        st.last_event = next(self._events)
        grant.intent = None
        reckey = grant.resource.reckey
        row = self.table.rows.get(reckey)
        if row is None or row.tombstone or (predicate is not None and not predicate.test(row.values)):
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
        grant = self._request(st, _item(reckey), LockMode.X, LockDuration.LONG, _write_intent(after_of))
        if grant.outcome is not _Outcome.GRANTED:
            yield from self._park(st, grant)
        image = self._write_row(st, grant, after_of)
        if image is None:
            raise RowNotFound(f"no row with reckey {reckey}")
        return image

    def write_item(self, txn: int, reckey: int, column_values: Optional[dict] = None,
                   ) -> Generator[LockRequest, None, WriteImage]:
        """Update a row; ``column_values`` None means the default recval += 1."""
        if column_values is None:
            return (yield from self._write_item(txn, reckey, _add_to_recval(1)))
        schema_columns(column_values)
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
        schema_columns(column_values)
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
        grant = self._request(st, _item(key), LockMode.X, LockDuration.LONG,
                              None if reserve_now else lambda _row_values: [values])
        if grant.outcome is not _Outcome.GRANTED:
            yield from self._park(st, grant)
        st.last_event = next(self._events)
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
        # Predicate-scope locking: one shared lock on the predicate itself.
        if st.level != IsolationLevel.RU and self.config.lock_scope is LockScope.PREDICATE:
            grant = self._request(st, PredicateResource(predicate), LockMode.S, duration)
            if grant.outcome is not _Outcome.GRANTED:
                yield from self._park(st, grant)
        need = self._scan_lock_plan(st, cursor, _INF)
        if need is not None and aggregate:
            grant = self._request(st, need, LockMode.S, duration)
            if grant.outcome is not _Outcome.GRANTED:
                yield from self._park(st, grant)
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
                grant = self._request(st, need, LockMode.S, duration)
                if grant.outcome is not _Outcome.GRANTED:
                    yield from self._park(st, grant)
                cursor.frontier = need.high
                if walked != self.table.version:  # the table changed during the wait
                    walked = self.table.version
                    matches = self._matches(predicate, keys[-1] if keys else cursor.position)
                    key = next(matches, _INF)
        if not aggregate:
            cursor.position = keys[-1] if keys else cursor.position
            rows = [(key,) if columns == ("reckey",) else
                    (key, *(by_key[key].values[c] for c in columns)) for key in keys]
        st.last_event = next(self._events)
        if drain:
            st.cursors.pop(pred_var, None)
        self._release_short(st)
        return rows

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
        schema_columns(columns or ())  # before any lock: a scan releases its SHORT ones only as it returns
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
        intent = _write_intent(after_of)
        images: List[WriteImage] = []
        matches = self._matches(predicate)
        key = next(matches, None)
        while key is not None:
            walked = self.table.version
            grant = self._request(st, _item(key), LockMode.X, LockDuration.LONG, intent)
            if grant.outcome is not _Outcome.GRANTED:
                yield from self._park(st, grant)
            if walked == self.table.version:  # the row is as the walk found it
                image = self._write_row(st, grant, after_of)
            else:  # a park or a deadlock rollback changed the table: look again
                image = self._write_row(st, grant, after_of, predicate)
                matches = self._matches(predicate, key)
            if image is not None:
                images.append(image)
            key = next(matches, None)
        st.last_event = next(self._events)
        return len(images), images

    def set_select(self, txn: int, predicate: PredicateExpr,
                   aggregate: str = "sum") -> Generator[LockRequest, None, int]:
        """sum(recval) or count(*) over the predicate: a drain with no
        variable binding, locking like ``PR(P;count(*);all)``."""
        rows = yield from self._scan(txn, None, predicate, None, "all", aggregate)
        return rows[0][0]
