"""Traced runs: per-layer spans and counts, recorded from the benchmark.

The tracer replaces public functions of the ``isoharness`` modules with
timing or counting wrappers for the length of the traced phase and puts the
originals back afterwards.  A function imported by name into another module
(``build_canonical_table`` into ``executor``, ``parse_record_op`` into
``analyzer``, ...) is replaced at every such binding.

Spans carry name, start, end, parent span and history id, and are kept in
memory; :meth:`Tracer.write` saves them as JSON lines when the run ends.
Spans opened on a worker thread take the enclosing ``run_history`` span as
their parent.  Counts are kept per thread and summed at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional

# Engine methods that do the work of an operation.  ``request_state`` is the
# monitor's polling and is counted as ``executor.polls`` instead.
ENGINE_OPS = (
    "begin", "commit", "rollback", "read_item", "write_item", "rw_item",
    "insert_item", "delete_item", "predicate_read", "set_update", "set_select",
)
SCAN_OPS = ("predicate_read", "set_update", "set_select")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (id, name, start, end, parent, history, cpu)
        self.history: Optional[int] = None
        self.run_span: Optional[int] = None
        self.extra = Counter()  # counts taken by the benchmark loop itself
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: List[Counter] = []
        self._undo: List[tuple] = []

    # ----------------------------------------------------------- plumbing

    def _thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.engine_depth = 0
            loc.holds_depth = 0
            loc.scan = None  # [evals, matched reckeys] inside PR/SS/SU
            loc.counts = Counter()
            self._counters.append(loc.counts)
        return loc

    def counts(self) -> Counter:
        total = Counter(self.extra)
        for c in self._counters:
            total.update(c)
        return total

    def span(self, name: str, fn, cpu: bool = False, root: bool = False):
        """``fn`` wrapped to record one span per call.  ``root`` marks the
        span that worker-thread spans of the same history hang under."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = self._thread()
            parent = loc.stack[-1] if loc.stack else self.run_span
            sid = next(self._ids)
            loc.stack.append(sid)
            if root:
                self.run_span = sid
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                used = time.thread_time() - c0 if cpu else None
                loc.stack.pop()
                if root:
                    self.run_span = None
                self.spans.append((sid, name, t0, t1, parent, self.history, used))

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, module: str, fname: str, make) -> None:
        """Replace every module-level binding of ``isoharness.<module>.<fname>``."""
        original = getattr(sys.modules[f"isoharness.{module}"], fname)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name.startswith("isoharness") and getattr(mod, fname, None) is original:
                self._set(mod, fname, wrapped)

    # ----------------------------------------------------------- install

    def install(self) -> None:
        from isoharness import dataset, engine, notation

        self._rebind("dataset", "build_canonical_table", lambda fn: self.span("dataset.build", fn))
        self._rebind("executor", "handle_frame", lambda fn: self.span("executor.handle_frame", fn))
        self._rebind("notation", "parse_record_op", lambda fn: self._counted("notation.record_parses", fn))
        self._rebind("outhist", "decode_image_side", lambda fn: self._counted("outhist.image_decodes", fn))
        self._rebind("dataset", "eval_predicate", self._eval_predicate)
        self._rebind("analyzer", "detect_pairs", lambda fn: self._counted("analyzer.pairs", fn, len))
        for cls in (notation.Comparison, notation.And, notation.Or):
            self._set(cls, "holds", self._holds(cls.holds))
        for name in ENGINE_OPS:
            self._set(engine.Engine, name, self._engine_op(name, getattr(engine.Engine, name)))
        self._set(engine.Engine, "request_state",
                  self._counted("executor.polls", engine.Engine.request_state))
        self._set(dataset.CanonicalTable, "keys_ascending",
                  self._counted("dataset.keys_sorted", dataset.CanonicalTable.keys_ascending, len))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- wrappers

    def _counted(self, name: str, fn, size=None):
        """``fn`` wrapped to add 1 per call to count ``name``, or
        ``size(result)`` when ``size`` is given."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._thread().counts[name] += 1 if size is None else size(result)
            return result

        return wrapper

    def _eval_predicate(self, fn):
        @functools.wraps(fn)
        def wrapper(row, predicate):
            result = fn(row, predicate)
            scan = self._thread().scan
            if scan is not None:
                scan[0] += 1
                if result:
                    scan[1].add(row.values["reckey"])
            return result

        return wrapper

    def _holds(self, fn):
        @functools.wraps(fn)
        def holds(pred, row_values):
            loc = self._thread()
            if loc.holds_depth == 0 and loc.engine_depth:
                loc.counts["engine.predicate_evals"] += 1
            loc.holds_depth += 1
            try:
                return fn(pred, row_values)
            finally:
                loc.holds_depth -= 1

        return holds

    def _engine_op(self, name: str, fn):
        timed = self.span(f"engine.{name}", fn, cpu=True)
        scans = name in SCAN_OPS

        @functools.wraps(fn)
        def op(*args, **kwargs):
            loc = self._thread()
            loc.engine_depth += 1
            if scans:
                loc.scan = [0, set()]
            try:
                return timed(*args, **kwargs)
            finally:
                loc.engine_depth -= 1
                if scans:
                    evals, matched = loc.scan
                    loc.scan = None
                    loc.counts["engine.scan_evals"] += evals
                    loc.counts["engine.scan_rows"] += len(matched)

        return op

    # ----------------------------------------------------------- results

    def metrics(self, histories: int) -> Dict[str, float]:
        """Per-history figures over the traced histories."""
        h = max(histories, 1)
        ms: Counter = Counter()
        engine_cpu = engine_wall = 0.0
        frames = 0
        runs = {}
        children: Dict[int, list] = {}
        for sid, name, t0, t1, parent, _, cpu in self.spans:
            ms[name] += (t1 - t0) * 1e3
            if cpu is not None:
                engine_wall += t1 - t0
                engine_cpu += cpu
            if name == "executor.run_history":
                runs[sid] = (t0, t1)
            elif name in ("executor.handle_frame", "dataset.build"):
                frames += name == "executor.handle_frame"
                children.setdefault(parent, []).append((t0, t1))
        # executor self time: run_history wall minus the union of the frame
        # and table-build spans under it.
        self_ms = 0.0
        for sid, (t0, t1) in runs.items():
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, [])):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            self_ms += (t1 - t0 - covered) * 1e3
        n = self.counts()
        return {
            "notation.parse_ms": ms["notation.parse_history"] / h,
            "notation.record_parses": n["notation.record_parses"] / h,
            "dataset.build_ms": ms["dataset.build"] / h,
            "dataset.keys_sorted": n["dataset.keys_sorted"] / h,
            "engine.busy_ms": engine_cpu * 1e3 / h,
            "engine.wait_ms": (engine_wall - engine_cpu) * 1e3 / h,
            "engine.rows_examined_per_row_returned":
                n["engine.scan_evals"] / n["engine.scan_rows"] if n["engine.scan_rows"] else 0.0,
            "engine.predicate_evals": n["engine.predicate_evals"] / h,
            "engine.lock_acquires": n["engine.lock_acquires"] / h,
            "engine.release_ms": (ms["engine.commit"] + ms["engine.rollback"]) / h,
            "executor.self_ms": self_ms / h,
            "executor.frames": frames / h,
            "executor.polls": n["executor.polls"] / h,
            "outhist.serialize_ms": ms["outhist.serialize"] / h,
            "outhist.parse_ms": ms["outhist.parse_output"] / h,
            "outhist.bytes": n["outhist.bytes"] / h,
            "outhist.image_decodes": n["outhist.image_decodes"] / h,
            "analyzer.analyze_ms": ms["analyzer.analyze_history"] / h,
            "analyzer.pairs": n["analyzer.pairs"] / h,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, history, cpu in self.spans:
                record = {"id": sid, "name": name, "start": t0, "end": t1,
                          "parent": parent, "history": history}
                if cpu is not None:
                    record["cpu"] = cpu
                fh.write(json.dumps(record) + "\n")
