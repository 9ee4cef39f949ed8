"""Benchmark of the judge: one closed-loop client judging histories.

    python3 bench/run.py --workload matrix|scan|contention --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One judged history is the public chain ``parse_history`` -> ``run_history``
(sync mode, no parallelism) -> ``serialize`` -> ``parse_output`` ->
``analyze_history``, timed on its own.  The checks in ``checks.py`` run after
each history, outside the timed span.  The loop runs whole cycles of the
workload's corpus until the timed histories add up to ``--seconds``.  The
time metrics are computed from each history's median time over the cycles
(see README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
40 % of the time untraced and the rest traced, prints the per-layer metrics
of the traced part plus the tracing overhead, and writes the spans to
``bench/out/trace-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every history passed its checks.
"""

import time

_PROCESS_START = time.perf_counter()  # taken before isoharness is imported

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-up is repeated in every run and its median reported; the first
# repetition also pays for interpreter-wide imports and, in a fresh
# checkout, for compiling bytecode.
SETUP_REPEATS = 5
TRACE_UNTRACED_SHARE = 0.4

END_TO_END_UNITS = {
    "histories_per_s": "1/s",
    "history_p50_ms": "ms",
    "history_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "notation.parse_ms": "ms",
    "notation.record_parses": "count",
    "dataset.build_ms": "ms",
    "dataset.keys_sorted": "count",
    "engine.busy_ms": "ms",
    "engine.wait_ms": "ms",
    "engine.rows_examined_per_row_returned": "ratio",
    "engine.predicate_evals": "count",
    "engine.lock_acquires": "count",
    "engine.release_ms": "ms",
    "executor.self_ms": "ms",
    "executor.frames": "count",
    "executor.polls": "count",
    "outhist.serialize_ms": "ms",
    "outhist.parse_ms": "ms",
    "outhist.bytes": "bytes",
    "outhist.image_decodes": "count",
    "analyzer.analyze_ms": "ms",
    "analyzer.pairs": "count",
    "generator.corpus_ms": "ms",
    "trace.overhead_pct": "%",
}


class SetupError(Exception):
    """The program cannot be imported from this checkout."""


def import_program():
    """Import ``isoharness`` afresh from this checkout's ``src/``."""
    if not (SRC / "isoharness" / "__init__.py").is_file():
        raise SetupError(f"no isoharness package under {SRC}")
    for name in [n for n in sys.modules if n == "isoharness" or n.startswith("isoharness.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import isoharness

    if Path(isoharness.__file__).resolve().parent != SRC / "isoharness":
        raise SetupError(f"isoharness imported from {isoharness.__file__}, not {SRC}")
    return isoharness


@dataclass
class Program:
    """The imported program and what the benchmark hooks into it."""

    ih: object
    engines: list  # engines created by the current history, for the checks
    configs: dict  # (rows, lock scope) -> ExecutorConfig


def load_program() -> Program:
    ih = import_program()
    engines: list = []
    engine_init = ih.Engine.__init__

    def capture(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    ih.Engine.__init__ = capture
    scopes = {"predicate": ih.LockScope.PREDICATE, "incremental": ih.LockScope.INCREMENTAL_RANGE}
    configs = {
        (rows, scope): ih.ExecutorConfig(rows=rows, engine=ih.EngineConfig(lock_scope=lock_scope))
        for rows in (200, workloads.SCAN_ROWS, workloads.CONTENTION_ROWS)
        for scope, lock_scope in scopes.items()
    }
    return Program(ih, engines, configs)


def make_workload(name: str, seed: int, ih):
    if name == "matrix":
        from isoharness.generator import PREDICATE_VARIANTS

        return workloads.matrix(seed, ih.generate_matrix, PREDICATE_VARIANTS, ih.render_history)
    return getattr(workloads, name)(seed)


class Chain:
    """The judged-history chain, optionally with a span around each call."""

    def __init__(self, ih, tracer=None):
        calls = {
            "parse": ("notation.parse_history", ih.parse_history),
            "run": ("executor.run_history", ih.run_history),
            "serialize": ("outhist.serialize", ih.serialize),
            "parse_output": ("outhist.parse_output", ih.parse_output),
            "analyze": ("analyzer.analyze_history", ih.analyze_history),
        }
        for attr, (span, fn) in calls.items():
            if tracer is not None:
                fn = tracer.span(span, fn, root=attr == "run")
            setattr(self, attr, fn)

    def judge(self, case, config):
        prog = self.parse(case.text, source_name=case.name)
        output = self.run(prog, config)
        text = self.serialize(output)
        judgment = self.analyze(self.parse_output(text))
        return text, judgment


def set_up(name: str, seed: int, started: float):
    """Import, generate and parse the corpus, warm up.  Returns
    (program, workload, seconds since ``started``, corpus milliseconds)."""
    program = load_program()
    c0 = time.perf_counter()
    workload = make_workload(name, seed, program.ih)
    for case in workload.cases:
        program.ih.parse_history(case.text, source_name=case.name)
    corpus_ms = (time.perf_counter() - c0) * 1e3
    chain = Chain(program.ih)
    for case in workload.warmup:
        chain.judge(case, program.configs[(case.rows, case.lock_scope)])
    return program, workload, time.perf_counter() - started, corpus_ms


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reported: int = 0


@dataclass
class Timing:
    durations: list = field(default_factory=list)  # seconds per completed history
    by_case: dict = field(default_factory=dict)  # history name -> its durations
    timed: float = 0.0  # seconds inside the chain, failed histories included

    def typical(self) -> list:
        """Each history's median duration over the run's cycles, sorted."""
        return sorted(statistics.median(v) for v in self.by_case.values())


def run_phase(program: Program, workload, until: float, timing: Timing, tally: Tally,
              tracer=None) -> None:
    """Whole cycles of the corpus until the timed histories reach ``until``
    seconds in total."""
    chain = Chain(program.ih, tracer)
    while timing.timed < until:
        for case in workload.cases:
            tally.attempted += 1
            program.engines.clear()
            if tracer is not None:
                tracer.history = tally.attempted
            t0 = time.perf_counter()
            try:
                text, judgment = chain.judge(case, program.configs[(case.rows, case.lock_scope)])
            except Exception as exc:  # a history that raises counts as failed
                timing.timed += time.perf_counter() - t0
                record_failure(tally, case, [f"raised {type(exc).__name__}: {exc}"])
                continue
            dt = time.perf_counter() - t0
            timing.timed += dt
            timing.durations.append(dt)
            timing.by_case.setdefault(case.name, []).append(dt)
            engine = program.engines[-1]
            if tracer is not None:
                tracer.extra["outhist.bytes"] += len(text)
                tracer.extra["engine.lock_acquires"] += sum(
                    1 for ev in engine.lock_events if ev.action == "ACQUIRE"
                )
            final_rows = {k: r.values for k, r in engine.table.rows.items() if not r.tombstone}
            problems = checks.check_history(
                case, text, judgment.verdict.value, final_rows, engine.lock_events
            )
            if problems:
                record_failure(tally, case, problems)


def record_failure(tally: Tally, case, problems) -> None:
    tally.failed += 1
    if tally.reported < 5:
        tally.reported += 1
        print(f"FAILED {case.name}: " + "; ".join(problems[:4]), file=sys.stderr)
        print(f"  history: {case.text.strip()}", file=sys.stderr)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def join_workers() -> None:
    """Wait for the worker threads of finished histories to exit."""
    for thread in threading.enumerate():
        if thread.name.startswith("txn-worker"):
            thread.join(timeout=5.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "scan", "contention"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups, corpus = [], []

    def fresh_setup(started: float):
        program, workload, setup_s, corpus_ms = set_up(args.workload, args.seed, started)
        setups.append(setup_s)
        corpus.append(corpus_ms)
        join_workers()
        # The corpus, the checks' canonical tables and the imported modules
        # live for the whole run; freezing them keeps the program's garbage
        # collections from rescanning the benchmark's own objects.
        for case in workload.cases:
            checks.canonical_table(case.rows)
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        return program, workload

    try:
        program, workload = fresh_setup(_PROCESS_START)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    timing = Timing()
    if args.trace:
        for _ in range(SETUP_REPEATS - 1):
            program, workload = fresh_setup(time.perf_counter())
        run_phase(program, workload, args.seconds * TRACE_UNTRACED_SHARE, timing, tally)
        untraced_rate = len(timing.durations) / timing.timed
        join_workers()
        timing = Timing()
        tracer = Tracer()
        tracer.install()
        try:
            run_phase(program, workload, args.seconds * (1 - TRACE_UNTRACED_SHARE), timing, tally, tracer)
            join_workers()
        finally:
            tracer.uninstall()
        values = tracer.metrics(len(timing.durations))
        values["generator.corpus_ms"] = statistics.median(corpus)
        values["trace.overhead_pct"] = (untraced_rate / (len(timing.durations) / timing.timed) - 1) * 100
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        # The set-up is repeated between segments of the timed run, so that
        # its samples are spread over the run like the histories are.
        for segment in range(SETUP_REPEATS):
            if segment:
                program, workload = fresh_setup(time.perf_counter())
            run_phase(program, workload, args.seconds * (segment + 1) / SETUP_REPEATS, timing, tally)
        typical = timing.typical()
        values = {
            "histories_per_s": len(typical) / sum(typical),
            "history_p50_ms": percentile(typical, 50) * 1e3,
            "history_p90_ms": percentile(typical, 90) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.4f} {unit}")
    print(f"workload={args.workload} seed={args.seed} histories={len(timing.durations)}"
          f" attempted={tally.attempted} failed={tally.failed}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
