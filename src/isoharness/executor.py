"""The monitor: runs a history's steps against the engine on one thread.

The monitor owns variable bindings.  :func:`handle_frame` carries out every
step: a generator that resolves the step's bindings, makes its engine call,
yields each lock request the call parks on, binds what the result carries
and returns the record's ``(values, images)``; the code of an engine error
it raises becomes the record's status.  ``PRED`` and ``MAP`` (transaction 0)
only bind, and make no engine call.  Records keep the engine's own
:class:`engine.WriteImage` objects, which :func:`outhist.serialize` encodes.
The monitor never touches table or lock state but through the engine calls
its steps make.

Steps run one at a time, in program order, each until its engine call
completes or parks in the lock table.  The steps of a transaction whose
call is parked are set aside until it completes; steps of other
transactions go on.  After each step the monitor resumes every parked call
the engine has settled (granted, or its transaction picked as a deadlock
victim), earliest settlement first, until none is left, then records what
completed or parked in engine event order.  So BLOCKED means "parked in the
lock table", the output history is the engine's own order, and a run writes
the same records every time.  A run is stuck when only steps of parked
transactions remain.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

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
from .notation import HistoryProgram, OpKind, Step, render_step
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

if TYPE_CHECKING:
    from .notation import PredicateExpr

    # Only for type checkers: typing caches subscripted generics, so at run
    # time the alias would keep the Engine class of every import alive.
    #: A step under way: yields each lock request it parks on and returns
    #: the record's (values, images).
    Frame = Generator[LockRequest, None, Tuple[Optional[list], List[WriteImage]]]


@dataclass
class ExecutorConfig:
    rows: int = 200
    engine: EngineConfig = field(default_factory=EngineConfig)


@dataclass
class BindingEnv:
    row_vars: Dict[str, int] = field(default_factory=dict)
    value_vars: Dict[str, int] = field(default_factory=dict)
    pred_vars: Dict[str, PredicateExpr] = field(default_factory=dict)
    #: Row variables an insert under way will bind; no other step may name them.
    inserting: set = field(default_factory=set)


# -------------------------------------------------------------------- steps


class RowVarRebound(EngineError):
    code = "RowVarRebound"


class UnboundPredicate(EngineError):
    code = "UnboundPredicate"


class UnboundValueVar(EngineError):
    code = "UnboundValueVar"


def _row(engine: Engine, env: BindingEnv, name: str) -> int:
    """The reckey row variable ``name`` is bound to; an unbound name binds
    the first canonical row that no row variable claims."""
    if name in env.row_vars:
        return env.row_vars[name]
    claimed = set(env.row_vars.values())
    for key in range(100, 100 * engine.table.row_count + 1, 100):
        if key not in claimed:
            env.row_vars[name] = key
            return key
    raise RuntimeError("no canonical row left for auto binding")


def handle_frame(engine: Engine, env: BindingEnv, step: Step) -> Frame:
    """Carry out one step of transaction ``step.txn``.

    The step's variables resolve on the generator's first ``next()``; engine
    errors, and the binding errors above, propagate out of the monitor's
    ``next()`` calls.  The value, row and new-key variables the result
    carries are bound before it returns the record's (values, images).
    """
    k, txn = step.kind, step.txn
    if step.row_var in env.inserting:
        raise RowVarRebound(f"row variable {step.row_var} is bound by an insert under way")
    if k is OpKind.PRED:
        env.pred_vars[step.pred_var] = step.predicate
    elif k is OpKind.MAP:
        if env.row_vars.setdefault(step.row_var, step.literal) != step.literal:
            raise RowVarRebound(f"row variable {step.row_var} is bound to another key")
    elif k is OpKind.IL:
        engine.begin(txn, step.level)
    elif k is OpKind.C:
        engine.commit(txn)
    elif k is OpKind.A:
        engine.rollback(txn)
    elif k is OpKind.I:
        if step.row_var in env.row_vars:
            raise RowVarRebound(f"row variable {step.row_var} is already bound; inserts bind fresh rows")
        values = dict(zip(step.column_spec, step.value_spec)) if step.column_spec else {}
        env.inserting.add(step.row_var)
        try:
            env.row_vars[step.row_var], image = yield from engine.insert_item(txn, None, values)
        finally:
            env.inserting.discard(step.row_var)
        return None, [image]
    elif k is OpKind.W:
        if step.value_var is None:
            updates = None if step.literal is None else {"recval": step.literal}
        elif step.value_var in env.value_vars:
            updates = {"recval": env.value_vars[step.value_var]}
        else:
            raise UnboundValueVar(f"value variable {step.value_var} is unbound")
        return None, [(yield from engine.write_item(txn, _row(engine, env, step.row_var), updates))]
    elif k is OpKind.R or k is OpKind.RW:
        key = _row(engine, env, step.row_var)
        if k is OpKind.R:
            value, images = (yield from engine.read_item(txn, key, "recval")), []
        else:
            value, image = yield from engine.rw_item(txn, key)
            images = [image]
        if step.value_var:
            env.value_vars[step.value_var] = value
        return [value], images
    elif k is OpKind.D:
        return None, [(yield from engine.delete_item(txn, _row(engine, env, step.row_var)))]
    else:  # PR, SU, SS
        predicate = env.pred_vars.get(step.pred_var)
        if predicate is None:
            raise UnboundPredicate(f"predicate {step.pred_var} was never declared")
        if k is OpKind.SU:
            count, images = yield from engine.set_update(txn, predicate, step.literal)
            return [count], images
        if k is OpKind.SS:
            return [(yield from engine.set_select(txn, predicate, step.aggregate))], []
        rows = yield from engine.predicate_read(txn, step.pred_var, predicate, step.column_spec,
                                                step.row_limit, step.aggregate)
        if rows and not step.aggregate:
            if step.row_var and step.row_var not in env.row_vars:
                env.row_vars[step.row_var] = rows[-1][0]
            if step.value_var and len(rows[-1]) > 1:
                env.value_vars[step.value_var] = rows[-1][1]
        return [t[0] if len(t) == 1 else t for t in rows], []
    return None, []


# ----------------------------------------------------------------- monitor


#: The status of a step that failed with one of these codes; any other is an ERROR.
_FAILURE_STATUS = {DeadlockAbort.code: STATUS_DEADLOCK, ReadOnlyViolation.code: STATUS_READONLY}


@dataclass
class _Pending:
    step: Step
    submit_seq: int
    blocked_seq: Optional[int] = None  # seq of the BLOCKED record, once emitted


class Monitor:
    def __init__(self, prog: HistoryProgram, config: Optional[ExecutorConfig] = None):
        self.prog = prog
        self.config = config or ExecutorConfig()
        self.table = build_canonical_table(self.config.rows)
        self.engine = Engine(self.table, self.config.engine)
        self.env = BindingEnv()
        self.records: List[OutputRecord] = []
        # txn -> (its frame, the lock request it is parked on, its pending step)
        self.parked: Dict[int, Tuple[Frame, LockRequest, _Pending]] = {}
        self.deferred: Dict[int, List[Step]] = {}
        self._submit_seq = 0

    def _emit(self, rec: OutputRecord) -> OutputRecord:
        rec.seq = len(self.records) + 1
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------ execution

    def run(self) -> OutputHistory:
        work = list(self.prog.steps)
        while work:
            step = work.pop(0)
            if step.txn in self.parked:
                self.deferred.setdefault(step.txn, []).append(step)
                continue
            self._submit_seq += 1
            if step.txn and step.kind is not OpKind.IL and step.txn not in self.engine.txns:
                self.engine.begin(step.txn, self.prog.default_level)  # implicit BEGIN: no record
            batch: list = []
            self._step(step.txn, handle_frame(self.engine, self.env, step),
                       _Pending(step, self._submit_seq), batch)
            self._resume_settled(batch)
            work[:0] = self._record(batch)
        return self._finish()

    def _step(self, txn: int, frame: Frame, pend: _Pending, batch: list) -> None:
        """Run a step's frame until its engine call completes or parks, and
        add ``(event, outcome, pend, op_text)`` to ``batch``: ``event`` is the
        engine event of its last effect (0 for ``PRED`` and ``MAP``), ``outcome``
        its (values, images), the code of the error it raised, or None while it
        is parked, and ``op_text`` the step with its row variables as they stand
        after this run."""
        try:
            lock = next(frame)
        except StopIteration as done:
            outcome = done.value
        except EngineError as exc:
            outcome = exc.code
        except Exception:  # an engine fault ends the step, not the run
            traceback.print_exc()
            outcome = "InternalError"
        else:
            self.parked[txn] = (frame, lock, pend)
            outcome = None
        batch.append((self.engine.txns[txn].last_event if txn else 0, outcome, pend,
                      render_step(pend.step, self.env.row_vars, compact=True)))

    def _resume_settled(self, batch: list) -> None:
        """Resume the parked frames the engine has settled until none is
        left, earliest settlement first: a resumed frame may settle others.
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
        set-aside steps of the transactions whose step completed."""
        resumed: List[Step] = []
        for _, outcome, pend, op_text in sorted(batch, key=lambda item: item[0]):
            if outcome is not None:
                self._complete(pend, outcome, op_text)
                resumed.extend(self.deferred.pop(pend.step.txn, []))
            elif pend.blocked_seq is None:  # a re-park of a resumed step adds no record
                blocked = self._emit(
                    OutputRecord(0, pend.submit_seq, pend.step.txn, op_text, STATUS_BLOCKED)
                )
                pend.blocked_seq = blocked.seq
        return resumed

    def _complete(self, pend: _Pending, outcome, op_text: str) -> None:
        step = pend.step
        if isinstance(outcome, str):  # the code of the error the step raised
            status = _FAILURE_STATUS.get(outcome, STATUS_ERROR)
            self._emit(OutputRecord(0, pend.submit_seq, step.txn, op_text, status,
                                    error_code=outcome if status == STATUS_ERROR else None))
            return
        values, images = outcome
        status = STATUS_RESUMED if pend.blocked_seq is not None else STATUS_OK
        self._emit(OutputRecord(0, pend.submit_seq, step.txn, op_text, status,
                                resumed_of=pend.blocked_seq, values=values, images=images))

    # - teardown -

    def _finish(self) -> OutputHistory:
        """The output history: levels and end states (BLOCKED only while a
        request is parked) are the engine's; a run is stuck when steps of
        parked transactions remain."""
        txns = sorted(self.engine.txns.items())
        header = RunHeader(
            name=self.prog.source_name,
            lock_scope=self.config.engine.lock_scope.value,
            strictness=self.config.engine.strictness.value,
            default_level=self.prog.default_level.name,
            rows=self.config.rows,
            ru_writes_allowed=self.config.engine.ru_writes_allowed,
            stuck=any(self.deferred.values()),
            levels={txn: state.level.name for txn, state in txns},
            meta={k: v.replace(" ", "_") for k, v in self.prog.metadata.items()},
        )
        finals = {txn: state.status.value for txn, state in txns}
        return OutputHistory(header=header, records=self.records, finals=finals)


def run_history(prog: HistoryProgram, config: Optional[ExecutorConfig] = None) -> OutputHistory:
    """Execute a parsed history and return its output history.

    A stuck run (steps remain but every one belongs to a transaction whose
    engine call is parked) is reported through the header's ``stuck`` flag, not
    an exception.
    """
    return Monitor(prog, config).run()
