"""Monitor and per-transaction workers.

The monitor owns variable bindings and turns each step into a request: a
function of ``(engine, txn)`` that makes the step's engine call and returns
the record's ``(values, images)``.  It sends each request to one worker
thread per transaction, which runs it (possibly blocking inside the engine)
through :func:`handle_frame` and posts the outcome back: the
``(values, images)`` pair, or the code of the engine error the request
raised.  Records keep the engine's own :class:`engine.WriteImage` objects,
which :func:`outhist.serialize` encodes.  The monitor never touches table or
lock state but through the engine calls its requests make.

Everything the monitor waits for arrives on one inbox: each worker outcome
with the engine event number of the request's last effect, and the engine's
PARK and WAKE posts for lock requests.  One loop serves both modes.  It
submits steps, waits until no submitted request is running (each has
completed or is parked in the lock table), then records what completed or
parked in engine event order.  So BLOCKED means "parked in the lock table",
and the output history is the engine's own order.

The mode decides only how far submission runs before the loop waits.
Synchronous mode submits one step; the steps of a transaction whose request
is parked are set aside until it completes, while steps of other
transactions continue.  Asynchronous mode submits steps in program order up
to the first step of a transaction with an outstanding request.
"""

from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from . import outhist
from .dataset import build_canonical_table
from .engine import (
    PARK,
    WAKE,
    DeadlockAbort,
    Engine,
    EngineConfig,
    EngineError,
    ReadOnlyViolation,
    WriteImage,
)
from .notation import (
    HistoryProgram,
    IsolationLevel,
    OpKind,
    PredicateExpr,
    Step,
    render_step,
)
from .outhist import (
    OutputHistory,
    OutputRecord,
    RunHeader,
    STATUS_BLOCKED,
    STATUS_DEADLOCK,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_READONLY,
    STATUS_RESUMED,
)


class Mode(Enum):
    SYNC = "SYNC"
    ASYNC = "ASYNC"


@dataclass
class ExecutorConfig:
    mode: Mode = Mode.SYNC
    # Sets only the stuck guard: a request running 4 * timeout without any
    # word from the workers or the engine ends the run as stuck.
    timeout: float = 2.0
    # None: honor the program's default_level metadata, falling back to RC.
    default_level: Optional[IsolationLevel] = None
    rows: int = 200
    engine: EngineConfig = field(default_factory=EngineConfig)
    verbose: bool = False


@dataclass
class BindingEnv:
    row_vars: Dict[str, int] = field(default_factory=dict)
    value_vars: Dict[str, int] = field(default_factory=dict)
    pred_vars: Dict[str, PredicateExpr] = field(default_factory=dict)


# ------------------------------------------------------------------ requests

if TYPE_CHECKING:
    # Only for type checkers: typing caches subscripted generics, so at run
    # time the alias would keep the Engine class of every import alive.
    #: A step's engine call: ``request(engine, txn)`` returns the record's
    #: (values, images).
    Request = Callable[[Engine, int], Tuple[Optional[list], List[WriteImage]]]


def _begin(level: IsolationLevel) -> Request:
    def request(engine: Engine, txn: int):
        engine.begin(txn, level)
        return None, []
    return request


def _commit(engine: Engine, txn: int):
    engine.commit(txn)
    return None, []


def _rollback(engine: Engine, txn: int):
    engine.rollback(txn)
    return None, []


def _value_and_image(value, image: WriteImage):
    return [value], [image]


def handle_frame(engine: Engine, txn: int, request: Request):
    """Run one request against the engine: the worker body, which may block
    inside the engine.  Engine errors propagate to the caller."""
    return request(engine, txn)


class Worker:
    """One long-lived thread per transaction, running the monitor's requests.

    Each outcome is posted to ``responses``, shared by all workers of a run,
    as ``(event, txn, outcome)``: ``event`` is the engine event number of the
    request's last effect, and ``outcome`` the request's (values, images) or
    the code of the error it raised.  A None request ends the thread.
    """

    def __init__(self, txn: int, engine: Engine, responses: "queue.SimpleQueue[tuple]"):
        self.txn = txn
        self.engine = engine
        self.requests: "queue.SimpleQueue[Optional[Request]]" = queue.SimpleQueue()
        self.responses = responses
        self.thread = threading.Thread(target=self._run, daemon=True, name=f"txn-worker-{txn}")
        self.thread.start()

    def send(self, request: Optional[Request]) -> None:
        self.requests.put(request)

    def _run(self) -> None:
        while (request := self.requests.get()) is not None:
            try:
                outcome = handle_frame(self.engine, self.txn, request)
            except EngineError as exc:
                outcome = exc.code
            except Exception:  # keep the channel alive no matter what
                traceback.print_exc()
                outcome = "InternalError"
            # Other threads stamp this transaction only while it has a parked
            # request, so once the request returns the number read is final.
            state = self.engine.txns.get(self.txn)
            self.responses.put((state.last_event if state else 0, self.txn, outcome))


# ----------------------------------------------------------------- monitor


@dataclass
class _Pending:
    step: Step
    op_text: str
    submit_seq: int
    blocked_seq: Optional[int] = None  # seq of the BLOCKED record, once emitted


class Monitor:
    def __init__(self, prog: HistoryProgram, config: Optional[ExecutorConfig] = None):
        self.prog = prog
        self.config = config or ExecutorConfig()
        self.table = build_canonical_table(self.config.rows)
        # The engine's callback holds only the inbox, not the monitor.
        self.inbox: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        self.engine = Engine(self.table, self.config.engine, notify=self.inbox.put)
        self.env = BindingEnv()
        self.workers: Dict[int, Worker] = {}
        self.levels: Dict[int, IsolationLevel] = {}
        self.records: List[OutputRecord] = []
        # txn -> its outstanding request; None for an implicit BEGIN
        self.pending: Dict[int, Optional[_Pending]] = {}
        self.running: set = set()  # pending transactions not parked
        self.deferred: Dict[int, List[Step]] = {}
        self.stuck = False
        self._submit_seq = 0
        self._record_seq = 0

    # ------------------------------------------------------------- plumbing

    def _default_level(self) -> IsolationLevel:
        if self.config.default_level is not None:
            return self.config.default_level
        meta = self.prog.metadata.get("default_level")
        if meta and meta.upper() in IsolationLevel.__members__:
            return IsolationLevel[meta.upper()]
        return IsolationLevel.RC

    def _emit(self, rec: OutputRecord) -> OutputRecord:
        self._record_seq += 1
        rec.seq = self._record_seq
        self.records.append(rec)
        if self.config.verbose:
            print(outhist._record_line(rec))
        return rec

    def _send(self, txn: int, request: Request, pend: Optional[_Pending]) -> None:
        worker = self.workers.get(txn)
        if worker is None:
            worker = self.workers[txn] = Worker(txn, self.engine, self.inbox)
        worker.send(request)
        self.pending[txn] = pend
        self.running.add(txn)

    # ------------------------------------------------------------- bindings

    def _auto_bind_row(self, name: str) -> int:
        claimed = set(self.env.row_vars.values())
        for i in range(1, self.table.row_count + 1):
            key = 100 * i
            if key not in claimed:
                self.env.row_vars[name] = key
                return key
        raise RuntimeError("no canonical row left for auto binding")

    def _resolve_row(self, name: str) -> int:
        if name in self.env.row_vars:
            return self.env.row_vars[name]
        return self._auto_bind_row(name)

    def resolve_step(self, step: Step):
        """Turn a non-declarative step into a :data:`Request`.

        Returns (request, error): ``error`` is an (code, message) pair when
        the step cannot be dispatched (unbound predicate, rebound row
        variable, unbound value variable).
        """
        k = step.kind
        if k is OpKind.IL:
            return _begin(step.level), None
        if k is OpKind.C:
            return _commit, None
        if k is OpKind.A:
            return _rollback, None
        if k is OpKind.I:
            if step.row_var in self.env.row_vars:
                return None, (
                    "RowVarRebound",
                    f"row variable {step.row_var} is already bound; inserts bind fresh rows",
                )
            values = dict(zip(step.column_spec, step.value_spec)) if step.column_spec else {}
            return lambda engine, txn: _value_and_image(*engine.insert_item(txn, None, values)), None
        if k in (OpKind.PR, OpKind.SU, OpKind.SS):
            predicate = self.env.pred_vars.get(step.pred_var)
            if predicate is None:
                return None, ("UnboundPredicate", f"predicate {step.pred_var} was never declared")
            return self._predicate_request(step, predicate), None
        if k is OpKind.W:
            if step.value_var is not None:
                if step.value_var not in self.env.value_vars:
                    return None, ("UnboundValueVar", f"value variable {step.value_var} is unbound")
                updates = {"recval": self.env.value_vars[step.value_var]}
            else:
                updates = None if step.literal is None else {"recval": step.literal}
            key = self._resolve_row(step.row_var)
            return lambda engine, txn: (None, [engine.write_item(txn, key, updates)]), None
        if k not in (OpKind.R, OpKind.RW, OpKind.D):
            raise ValueError(f"cannot resolve step kind {k}")
        key = self._resolve_row(step.row_var)
        if k is OpKind.R:
            return lambda engine, txn: ([engine.read_item(txn, key, "recval")], []), None
        if k is OpKind.RW:
            return lambda engine, txn: _value_and_image(*engine.rw_item(txn, key)), None
        return lambda engine, txn: (None, [engine.delete_item(txn, key)]), None

    @staticmethod
    def _predicate_request(step: Step, predicate: PredicateExpr) -> Request:
        if step.kind is OpKind.SU:
            def request(engine, txn):
                count, images = engine.set_update(txn, predicate, step.literal)
                return [count], images
        elif step.kind is OpKind.SS:
            def request(engine, txn):
                return [engine.set_select(txn, predicate, step.aggregate)], []
        else:
            def request(engine, txn):
                rows = engine.predicate_read(txn, step.pred_var, predicate, step.column_spec,
                                             step.row_limit, step.aggregate)
                return [t[0] if len(t) == 1 else t for t in rows], []
        return request

    def _apply_result_bindings(self, step: Step, values: list) -> None:
        k = step.kind
        if k in (OpKind.R, OpKind.RW) and step.value_var and values:
            self.env.value_vars[step.value_var] = values[0]
        elif k is OpKind.I:
            if step.row_var and values:
                self.env.row_vars[step.row_var] = values[0]  # the new key
        elif k is OpKind.PR:
            if values and not step.aggregate:
                last = values[-1]
                reckey = last[0] if isinstance(last, tuple) else last
                if step.row_var and step.row_var not in self.env.row_vars:
                    self.env.row_vars[step.row_var] = reckey
                if step.value_var and isinstance(last, tuple) and len(last) > 1:
                    self.env.value_vars[step.value_var] = last[1]

    # ------------------------------------------------------------- outcomes

    def _status_for_failure(self, code: str) -> Tuple[str, Optional[str]]:
        if code == DeadlockAbort.code:
            return STATUS_DEADLOCK, None
        if code == ReadOnlyViolation.code:
            return STATUS_READONLY, None
        return STATUS_ERROR, code

    # ------------------------------------------------------------ execution

    def run(self) -> OutputHistory:
        work = list(self.prog.steps)
        while True:
            if not self._submit(work):
                # nothing runs and nothing can be submitted
                self.stuck = bool(work) or any(self.deferred.values())
                break
            if not self._settle(work):
                self.stuck = True
                break
        return self._finish()

    def _submit(self, work: list) -> bool:
        """Submit steps in program order: one in SYNC mode, every step up to
        the first one of a busy transaction in ASYNC mode.  In SYNC mode the
        steps of a transaction whose request is parked are set aside.
        Returns whether anything was submitted."""
        sync = self.config.mode is Mode.SYNC
        submitted = False
        while work and not (sync and submitted):
            step = work[0]
            if step.txn in self.pending:
                if not sync:
                    break
                self.deferred.setdefault(step.txn, []).append(work.pop(0))
                continue
            submitted = True
            if step.kind not in (OpKind.PRED, OpKind.MAP, OpKind.IL) and step.txn not in self.levels:
                # implicit BEGIN: a request like any other that records nothing
                level = self._default_level()
                self.levels[step.txn] = level
                self._send(step.txn, _begin(level), None)
                continue
            self._dispatch(work.pop(0))
        return submitted

    def _dispatch(self, step: Step) -> None:
        self._submit_seq += 1
        if step.kind in (OpKind.PRED, OpKind.MAP):
            self._execute_declarative(step)
            return
        request, error = self.resolve_step(step)
        op_text = render_step(step, self.env.row_vars, compact=True)
        if error is not None:
            self._emit(
                OutputRecord(0, self._submit_seq, step.txn, op_text, STATUS_ERROR, error_code=error[0])
            )
            return
        self._send(step.txn, request, _Pending(step, op_text, self._submit_seq))

    def _settle(self, work: list) -> bool:
        """Wait until no submitted request is running, then record what
        completed or parked meanwhile in engine event order, and put the
        set-aside steps of completed transactions back in front of ``work``.
        Returns False when the stuck guard expired first."""
        batch = []
        expired = False
        while self.running and not expired:
            try:
                event, txn, what = self.inbox.get(timeout=4 * self.config.timeout)
            except queue.Empty:
                expired = True
                continue
            if what == WAKE:
                self.running.add(txn)
                continue
            self.running.discard(txn)
            pend = self.pending[txn] if what == PARK else self.pending.pop(txn)
            if pend is not None:
                batch.append((event, what, pend))
        resumed: List[Step] = []
        for _, what, pend in sorted(batch, key=lambda item: item[0]):
            if what != PARK:
                self._complete(pend, what)
                resumed.extend(self.deferred.pop(pend.step.txn, []))
            elif pend.blocked_seq is None:  # a re-park of a resumed request adds no record
                blocked = self._emit(
                    OutputRecord(0, pend.submit_seq, pend.step.txn, pend.op_text, STATUS_BLOCKED)
                )
                pend.blocked_seq = blocked.seq
        work[:0] = resumed
        return not expired

    def _complete(self, pend: _Pending, outcome) -> None:
        step = pend.step
        if isinstance(outcome, str):  # the code of the error the request raised
            status, error_code = self._status_for_failure(outcome)
            self._emit(OutputRecord(0, pend.submit_seq, step.txn, pend.op_text, status,
                                    error_code=error_code))
            return
        values, images = outcome
        if step.kind is OpKind.IL:
            self.levels[step.txn] = step.level
        status = STATUS_RESUMED if pend.blocked_seq is not None else STATUS_OK
        self._apply_result_bindings(step, values or [])
        op_text = render_step(step, self.env.row_vars, compact=True)
        rec = OutputRecord(
            0, pend.submit_seq, step.txn, op_text, status,
            resumed_of=pend.blocked_seq,
            values=self._record_values(step, values),
            images=images,
        )
        self._emit(rec)

    @staticmethod
    def _record_values(step: Step, values) -> Optional[list]:
        if step.kind in (OpKind.C, OpKind.A, OpKind.I):
            return None
        return values

    def _execute_declarative(self, step: Step) -> None:
        status = STATUS_OK
        code = None
        if step.kind is OpKind.PRED:
            self.env.pred_vars[step.pred_var] = step.predicate
        else:  # MAP
            bound = self.env.row_vars.get(step.row_var)
            if bound is not None and bound != step.literal:
                status, code = STATUS_ERROR, "RowVarRebound"
            else:
                self.env.row_vars[step.row_var] = step.literal
        self._emit(
            OutputRecord(
                0, self._submit_seq, 0,
                render_step(step, None, compact=True), status, error_code=code,
            )
        )

    # - teardown -

    def _finish(self) -> OutputHistory:
        finals: Dict[int, str] = {}
        for txn in sorted(self.levels):
            state = self.engine.txns.get(txn)
            if state is not None:  # BLOCKED only while a request is parked
                finals[txn] = state.status.value
        self.engine.shutdown()
        for worker in self.workers.values():
            worker.send(None)
        header = RunHeader(
            name=self.prog.source_name,
            mode=self.config.mode.value,
            lock_scope=self.config.engine.lock_scope.value,
            strictness=self.config.engine.strictness.value,
            default_level=self._default_level().name,
            rows=self.config.rows,
            timeout=self.config.timeout,
            ru_writes_allowed=self.config.engine.ru_writes_allowed,
            stuck=self.stuck,
            levels={t: lvl.name for t, lvl in self.levels.items()},
            meta={k: v.replace(" ", "_") for k, v in self.prog.metadata.items()},
        )
        return OutputHistory(header=header, records=self.records, finals=finals)


def run_history(prog: HistoryProgram, config: Optional[ExecutorConfig] = None) -> OutputHistory:
    """Execute a parsed history and return its output history.

    A stuck run (steps remain but every one belongs to a transaction whose
    request is parked, or a request ran past the stuck guard) is reported
    through the header's ``stuck`` flag, not an exception.
    """
    return Monitor(prog, config).run()
