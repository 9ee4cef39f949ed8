"""The monitor: runs a history's steps against the engine on one thread.

The monitor owns variable bindings and turns each step into a request: a
function of ``(engine, txn)`` that :func:`handle_frame` starts.  The request
is a generator that makes the step's engine call, yields each lock request
the call parks on, and returns the record's ``(values, images)``; the code
of an engine error it raises becomes the record's status.  Records keep the
engine's own :class:`engine.WriteImage` objects, which
:func:`outhist.serialize` encodes.  The monitor never touches table or lock
state but through the engine calls its requests make.

Steps run one at a time, in program order, each until its request completes
or parks in the lock table.  The steps of a transaction whose request is
parked are set aside until it completes; steps of other transactions go on.
After each step the monitor resumes every parked request the engine has
settled (granted, or its transaction picked as a deadlock victim), earliest
settlement first, until none is left, then records what completed or parked
in engine event order.  So BLOCKED means "parked in the lock table", the
output history is the engine's own order, and a run writes the same records
every time.  A run is stuck when only steps of parked transactions remain.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from . import outhist
from .dataset import build_canonical_table
from .engine import (
    DeadlockAbort,
    Engine,
    EngineConfig,
    EngineError,
    LockRequest,
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


@dataclass
class ExecutorConfig:
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
    #: A started request: yields each lock request it parks on and returns
    #: the record's (values, images).
    Frame = Generator[LockRequest, None, Tuple[Optional[list], List[WriteImage]]]
    #: A step's engine call: ``request(engine, txn)`` starts it.
    Request = Callable[[Engine, int], Frame]


def _plain(call: Callable[[Engine, int], object]) -> Request:
    """A request for an engine call that never parks: begin, commit, rollback."""
    def request(engine: Engine, txn: int):
        call(engine, txn)
        return None, []
        yield  # a generator like every request

    return request


def _parking(call: Callable[[Engine, int], Generator], shape: Callable) -> Request:
    """A request for an engine operation that can park; ``shape`` turns the
    operation's result into the record's (values, images)."""
    def request(engine: Engine, txn: int):
        return shape((yield from call(engine, txn)))

    return request


def _begin(level: IsolationLevel) -> Request:
    return _plain(lambda engine, txn: engine.begin(txn, level))


_commit = _plain(lambda engine, txn: engine.commit(txn))
_rollback = _plain(lambda engine, txn: engine.rollback(txn))


def _image(image: WriteImage):
    return None, [image]


def _value_and_image(result):
    value, image = result
    return [value], [image]


def handle_frame(engine: Engine, txn: int, request: Request) -> Frame:
    """Start one request against the engine; the monitor steps the generator
    it returns, and engine errors propagate out of those steps."""
    return request(engine, txn)


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
        self.engine = Engine(self.table, self.config.engine)
        self.env = BindingEnv()
        self.levels: Dict[int, IsolationLevel] = {}
        self.records: List[OutputRecord] = []
        # txn -> (its started request, the lock request it is parked on, its
        # pending step: None for an implicit BEGIN)
        self.parked: Dict[int, Tuple[Frame, LockRequest, Optional[_Pending]]] = {}
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
            return _parking(lambda engine, txn: engine.insert_item(txn, None, values),
                            _value_and_image), None
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
            return _parking(lambda engine, txn: engine.write_item(txn, key, updates), _image), None
        if k not in (OpKind.R, OpKind.RW, OpKind.D):
            raise ValueError(f"cannot resolve step kind {k}")
        key = self._resolve_row(step.row_var)
        if k is OpKind.R:
            return _parking(lambda engine, txn: engine.read_item(txn, key, "recval"),
                            lambda value: ([value], [])), None
        if k is OpKind.RW:
            return _parking(lambda engine, txn: engine.rw_item(txn, key), _value_and_image), None
        return _parking(lambda engine, txn: engine.delete_item(txn, key), _image), None

    @staticmethod
    def _predicate_request(step: Step, predicate: PredicateExpr) -> Request:
        if step.kind is OpKind.SU:
            return _parking(lambda engine, txn: engine.set_update(txn, predicate, step.literal),
                            lambda result: ([result[0]], result[1]))
        if step.kind is OpKind.SS:
            return _parking(lambda engine, txn: engine.set_select(txn, predicate, step.aggregate),
                            lambda value: ([value], []))
        return _parking(
            lambda engine, txn: engine.predicate_read(txn, step.pred_var, predicate, step.column_spec,
                                                      step.row_limit, step.aggregate),
            lambda rows: ([t[0] if len(t) == 1 else t for t in rows], []),
        )

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
        while work:
            step = work.pop(0)
            if step.txn in self.parked:
                self.deferred.setdefault(step.txn, []).append(step)
                continue
            batch: list = []
            if step.kind not in (OpKind.PRED, OpKind.MAP, OpKind.IL) and step.txn not in self.levels:
                # implicit BEGIN: a request like any other that records nothing
                level = self._default_level()
                self.levels[step.txn] = level
                self._start(step.txn, _begin(level), None, batch)
            self._dispatch(step, batch)
            self._resume_settled(batch)
            work[:0] = self._record(batch)
        self.stuck = any(self.deferred.values())
        return self._finish()

    def _dispatch(self, step: Step, batch: list) -> None:
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
        self._start(step.txn, request, _Pending(step, op_text, self._submit_seq), batch)

    def _start(self, txn: int, request: Request, pend: Optional[_Pending], batch: list) -> None:
        self._step(txn, handle_frame(self.engine, txn, request), pend, batch)

    def _step(self, txn: int, frame: Frame, pend: Optional[_Pending], batch: list) -> None:
        """Run a started request until it completes or parks, and add
        ``(event, outcome, pend)`` to ``batch``: ``event`` is the engine
        event of its last effect, ``outcome`` its (values, images), the code
        of the error it raised, or None while it is parked."""
        try:
            lock = next(frame)
        except StopIteration as done:
            outcome = done.value
        except EngineError as exc:
            outcome = exc.code
        except Exception:  # an engine fault ends the request, not the run
            traceback.print_exc()
            outcome = "InternalError"
        else:
            self.parked[txn] = (frame, lock, pend)
            outcome = None
        state = self.engine.txns.get(txn)
        if pend is not None:
            batch.append((state.last_event if state else 0, outcome, pend))

    def _resume_settled(self, batch: list) -> None:
        """Resume the parked requests the engine has settled until none is
        left, earliest settlement first: a resumed request may settle others.
        Nothing stamps a parked transaction after its settlement, so its last
        event is the settlement's."""
        while True:
            settled = [txn for txn, (_, lock, _) in self.parked.items() if lock.outcome is not None]
            if not settled:
                return
            txn = min(settled, key=lambda t: self.engine.txns[t].last_event)
            frame, _, pend = self.parked.pop(txn)
            self._step(txn, frame, pend, batch)

    def _record(self, batch: list) -> List[Step]:
        """Record what completed or parked in engine event order; returns the
        set-aside steps of the transactions whose request completed."""
        resumed: List[Step] = []
        for _, outcome, pend in sorted(batch, key=lambda item: item[0]):
            if outcome is not None:
                self._complete(pend, outcome)
                resumed.extend(self.deferred.pop(pend.step.txn, []))
            elif pend.blocked_seq is None:  # a re-park of a resumed request adds no record
                blocked = self._emit(
                    OutputRecord(0, pend.submit_seq, pend.step.txn, pend.op_text, STATUS_BLOCKED)
                )
                pend.blocked_seq = blocked.seq
        return resumed

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
        header = RunHeader(
            name=self.prog.source_name,
            lock_scope=self.config.engine.lock_scope.value,
            strictness=self.config.engine.strictness.value,
            default_level=self._default_level().name,
            rows=self.config.rows,
            ru_writes_allowed=self.config.engine.ru_writes_allowed,
            stuck=self.stuck,
            levels={t: lvl.name for t, lvl in self.levels.items()},
            meta={k: v.replace(" ", "_") for k, v in self.prog.metadata.items()},
        )
        return OutputHistory(header=header, records=self.records, finals=finals)


def run_history(prog: HistoryProgram, config: Optional[ExecutorConfig] = None) -> OutputHistory:
    """Execute a parsed history and return its output history.

    A stuck run (steps remain but every one belongs to a transaction whose
    request is parked) is reported through the header's ``stuck`` flag, not
    an exception.
    """
    return Monitor(prog, config).run()
