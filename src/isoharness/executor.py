"""Monitor and per-transaction workers.

The monitor owns variable bindings, turns steps into newline-terminated text
frames, and sends them to one worker thread per transaction.  Workers parse
frames, call the engine (possibly blocking inside it), and respond with
``SUCCESS ...`` or ``FAILURE <code> ...`` frames.  The tail of a ``SUCCESS``
frame is an output record's field list (``VALUES=`` and ``BEFORE=``/``AFTER=``
pairs), read by :func:`outhist.decode_fields`.  The monitor never touches
table or lock state through anything but these channels.

Everything the monitor waits for arrives on one inbox: each worker response
with the engine event number of the request's last effect, and the engine's
PARK and WAKE posts for lock requests.  One loop serves both modes.  It
submits steps, waits until no submitted request is running (each has
responded or is parked in the lock table), then records what completed or
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
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

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
    TxnStatus,
)
from .notation import (
    HistoryProgram,
    IsolationLevel,
    OpKind,
    PredicateExpr,
    Step,
    parse_predicate,
    render_predicate,
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
    decode_fields,
    encode_image,
    encode_values,
)


class ProtocolError(Exception):
    """Malformed monitor/worker frame."""


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
    indexes: bool = True
    verbose: bool = False


@dataclass
class BindingEnv:
    row_vars: Dict[str, int] = field(default_factory=dict)
    value_vars: Dict[str, int] = field(default_factory=dict)
    pred_vars: Dict[str, PredicateExpr] = field(default_factory=dict)


# ------------------------------------------------------------ frame protocol


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


def build_frame(*tokens) -> str:
    return " ".join(str(t) for t in tokens) + "\n"


def handle_frame(engine: Engine, txn: int, frame: str) -> str:
    """Execute one monitor request frame against the engine.

    This is the worker body: it may block inside the engine.  Returns the
    response frame; raises :class:`ProtocolError` for malformed requests and
    lets engine errors propagate to the caller.
    """
    _require(frame.endswith("\n"), "frame must be newline terminated")
    tokens = frame[:-1].split(" ")
    _require(bool(tokens) and bool(tokens[0]), "empty frame")
    op = tokens[0]
    args = tokens[1:]

    if op == "BEGIN":
        _require(len(args) == 1 and args[0] in IsolationLevel.__members__, "BEGIN <level>")
        engine.begin(txn, IsolationLevel[args[0]])
        return "SUCCESS\n"
    if op == "READ":
        _require(len(args) == 2, "READ <reckey> <column>")
        value = engine.read_item(txn, int(args[0]), args[1])
        return f"SUCCESS VALUES={value}\n"
    if op == "WRITE":
        _require(len(args) == 2, "WRITE <reckey> DEFAULT|<int>")
        updates = None if args[1] == "DEFAULT" else {"recval": int(args[1])}
        image = engine.write_item(txn, int(args[0]), updates)
        return f"SUCCESS {encode_image(image)}\n"
    if op == "RW":
        _require(len(args) == 1, "RW <reckey>")
        value, image = engine.rw_item(txn, int(args[0]))
        return f"SUCCESS VALUES={value} {encode_image(image)}\n"
    if op == "INSERT":
        _require(len(args) == 3, "INSERT AUTO|<key> <colspec|-> <valspec|->")
        reckey = None if args[0] == "AUTO" else int(args[0])
        values = {}
        if args[1] != "-":
            cols = args[1].split(";")
            vals = args[2].split(";")
            _require(len(cols) == len(vals), "column/value lists differ")
            values = {c: int(v) for c, v in zip(cols, vals)}
        key, image = engine.insert_item(txn, reckey, values)
        return f"SUCCESS VALUES={key} {encode_image(image)}\n"
    if op == "DELETE":
        _require(len(args) == 1, "DELETE <reckey>")
        image = engine.delete_item(txn, int(args[0]))
        return f"SUCCESS {encode_image(image)}\n"
    if op == "PR":
        _require(len(args) == 4, "PR <pred_var> <columns> <limit|all> <predicate>")
        pred_var, columns_text, limit_text, pred_text = args
        predicate = parse_predicate(pred_text)
        aggregate = "count" if columns_text == "count(*)" else None
        columns = None if aggregate else tuple(columns_text.split(";"))
        limit = "all" if limit_text == "all" else int(limit_text)
        rows = engine.predicate_read(txn, pred_var, predicate, columns, limit, aggregate)
        flat = [t[0] if len(t) == 1 else t for t in rows]
        return f"SUCCESS VALUES={encode_values(flat)}\n"
    if op == "SU":
        _require(len(args) == 2, "SU <delta> <predicate>")
        count, images = engine.set_update(txn, parse_predicate(args[1]), int(args[0]))
        return " ".join([f"SUCCESS VALUES={count}"] + [encode_image(img) for img in images]) + "\n"
    if op == "SS":
        _require(len(args) == 2 and args[0] in ("sum", "count"), "SS sum|count <predicate>")
        value = engine.set_select(txn, parse_predicate(args[1]), args[0])
        return f"SUCCESS VALUES={value}\n"
    if op == "COMMIT":
        _require(not args, "COMMIT takes no arguments")
        engine.commit(txn)
        return "SUCCESS\n"
    if op == "ROLLBACK":
        _require(not args, "ROLLBACK takes no arguments")
        engine.rollback(txn)
        return "SUCCESS\n"
    if op == "FINALIZE":
        _require(not args, "FINALIZE takes no arguments")
        return "SUCCESS\n"
    raise ProtocolError(f"unknown request {op!r}")


class Worker:
    """One long-lived thread per transaction, driven by framed messages.

    Each response is posted to ``responses``, shared by all workers of a
    run, as ``(event, txn, response)``: ``event`` is the engine event number
    of the request's last effect.
    """

    def __init__(self, txn: int, engine: Engine, responses: "queue.SimpleQueue[tuple]"):
        self.txn = txn
        self.engine = engine
        self.requests: "queue.SimpleQueue[str]" = queue.SimpleQueue()
        self.responses = responses
        self.thread = threading.Thread(target=self._run, daemon=True, name=f"txn-worker-{txn}")
        self.thread.start()

    def send(self, frame: str) -> None:
        self.requests.put(frame)

    def _run(self) -> None:
        while True:
            frame = self.requests.get()
            try:
                response = handle_frame(self.engine, self.txn, frame)
            except ProtocolError as exc:
                response = f"FAILURE ProtocolError {exc}\n"
            except EngineError as exc:
                detail = str(exc).replace("\n", " ")
                response = f"FAILURE {exc.code} {detail}\n"
            except Exception as exc:  # keep the channel alive no matter what
                detail = str(exc).replace("\n", " ")
                response = f"FAILURE InternalError {type(exc).__name__}: {detail}\n"
            # Other threads stamp this transaction only while it has a parked
            # request, so once the request returns the number read is final.
            state = self.engine.txns.get(self.txn)
            self.responses.put((state.last_event if state else 0, self.txn, response))
            if frame.strip() == "FINALIZE":
                return


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
        if not self.config.indexes:
            self.table.indexed_columns = set()
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

    def _send(self, txn: int, frame: str, pend: Optional[_Pending]) -> None:
        worker = self.workers.get(txn)
        if worker is None:
            worker = self.workers[txn] = Worker(txn, self.engine, self.inbox)
        worker.send(frame)
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
        """Turn a non-declarative step into a request frame.

        Returns (frame, error): ``error`` is an (code, message) pair when the
        step cannot be dispatched (unbound predicate, rebound row variable,
        unbound value variable).
        """
        k = step.kind
        if k is OpKind.C:
            return build_frame("COMMIT"), None
        if k is OpKind.A:
            return build_frame("ROLLBACK"), None
        if k is OpKind.R:
            return build_frame("READ", self._resolve_row(step.row_var), "recval"), None
        if k is OpKind.W:
            if step.value_var is not None:
                if step.value_var not in self.env.value_vars:
                    return None, ("UnboundValueVar", f"value variable {step.value_var} is unbound")
                value = self.env.value_vars[step.value_var]
            elif step.literal is not None:
                value = step.literal
            else:
                value = "DEFAULT"
            return build_frame("WRITE", self._resolve_row(step.row_var), value), None
        if k is OpKind.RW:
            return build_frame("RW", self._resolve_row(step.row_var)), None
        if k is OpKind.D:
            return build_frame("DELETE", self._resolve_row(step.row_var)), None
        if k is OpKind.I:
            if step.row_var in self.env.row_vars:
                return None, (
                    "RowVarRebound",
                    f"row variable {step.row_var} is already bound; inserts bind fresh rows",
                )
            if step.column_spec:
                cols = ";".join(step.column_spec)
                vals = ";".join(str(v) for v in step.value_spec)
            else:
                cols = vals = "-"
            return build_frame("INSERT", "AUTO", cols, vals), None
        if k in (OpKind.PR, OpKind.SU, OpKind.SS):
            predicate = self.env.pred_vars.get(step.pred_var)
            if predicate is None:
                return None, ("UnboundPredicate", f"predicate {step.pred_var} was never declared")
            compact = render_predicate(predicate, compact=True)
            if k is OpKind.PR:
                columns = "count(*)" if step.aggregate == "count" else ";".join(step.column_spec)
                return build_frame("PR", step.pred_var, columns, step.row_limit, compact), None
            if k is OpKind.SU:
                return build_frame("SU", step.literal, compact), None
            agg = "count" if step.aggregate == "count" else "sum"
            return build_frame("SS", agg, compact), None
        raise ValueError(f"cannot resolve step kind {k}")

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

    # ------------------------------------------------------------ responses

    @staticmethod
    def _parse_response(response: str):
        """Split a worker response into (ok, code, values, images)."""
        if not response.endswith("\n"):
            raise ProtocolError("response must be newline terminated")
        tokens = response[:-1].split(" ")
        if tokens[0] == "FAILURE":
            return False, tokens[1] if len(tokens) > 1 else "Unknown", None, []
        if tokens[0] != "SUCCESS":
            raise ProtocolError(f"bad response head {tokens[0]!r}")
        values, images = decode_fields(tokens[1:], check=False)
        return True, None, values, images

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
                self._send(step.txn, build_frame("BEGIN", level.name), None)
                continue
            self._dispatch(work.pop(0))
        return submitted

    def _dispatch(self, step: Step) -> None:
        self._submit_seq += 1
        if step.kind in (OpKind.PRED, OpKind.MAP):
            self._execute_declarative(step)
            return
        if step.kind is OpKind.IL:
            frame, error = build_frame("BEGIN", step.level.name), None
        else:
            frame, error = self.resolve_step(step)
        op_text = render_step(step, self.env.row_vars, compact=True)
        if error is not None:
            self._emit(
                OutputRecord(0, self._submit_seq, step.txn, op_text, STATUS_ERROR, error_code=error[0])
            )
            return
        self._send(step.txn, frame, _Pending(step, op_text, self._submit_seq))

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

    def _complete(self, pend: _Pending, response: str) -> None:
        ok, code, values, images = self._parse_response(response)
        step = pend.step
        if ok:
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
            return
        status, error_code = self._status_for_failure(code)
        self._emit(
            OutputRecord(
                0, pend.submit_seq, step.txn, pend.op_text, status, error_code=error_code,
            )
        )

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
            if txn in self.pending:
                finals[txn] = TxnStatus.BLOCKED.value
            elif state is not None:
                finals[txn] = state.status.value
        self.engine.shutdown()
        for worker in self.workers.values():
            worker.send(build_frame("FINALIZE"))
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
