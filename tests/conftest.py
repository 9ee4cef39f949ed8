import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from isoharness import dataset, outhist
from isoharness.engine import Engine, EngineConfig
from isoharness.executor import ExecutorConfig, Monitor
from isoharness.notation import SCHEMA_COLUMNS, parse_history

#: The engine operations that can park: generators that yield each lock
#: request they park on and return the operation's result.
PARKING_OPS = ("read_item", "write_item", "rw_item", "delete_item", "insert_item",
               "predicate_read", "set_update", "set_select")


@pytest.fixture(scope="session", autouse=True)
def shared_rows_stay_canonical():
    """Every table of a row count shares that count's canonical rows, so an
    edit of one would reach every later table: at the end of the run, each
    set of shared rows handed out must still be canonical, and so must the
    image text each of them keeps once encoded."""
    handed_out = {}
    cached = dataset._canonical_rows

    def recording(row_count):
        shared = cached(row_count)
        handed_out[id(shared)] = row_count, shared  # kept alive: ids stay unique
        return shared

    dataset._canonical_rows = recording
    yield
    dataset._canonical_rows = cached
    for row_count, (rows, keys) in handed_out.values():
        assert keys == [100 * i for i in range(1, row_count + 1)], f"{row_count} rows: keys changed"
        changed = [k for k in keys if rows.get(k) != dataset.initial_row(k // 100)]
        assert len(rows) == row_count and not changed, f"{row_count} rows: rows {changed[:5]} changed"
        stale = [k for k, row in rows.items() if row.side_text not in (None, _side_format(row))]
        assert not stale, f"{row_count} rows: rows {stale[:5]} keep a stale image text"


def _side_format(row: dataset.Row) -> str:
    return outhist._SIDE_FORMAT % tuple(row.values[col] for col in SCHEMA_COLUMNS)


def held_locks(engine: Engine, txn: int) -> list:
    """The grants ``txn`` holds, in grant order."""
    return list(engine.txns[txn].grants)


def copy_row(row: dataset.Row) -> dataset.Row:
    """A copy of ``row`` with its own values dict."""
    return dataset.Row(dict(row.values), row.tombstone)


def live_rows(table: dataset.CanonicalTable) -> dict:
    """reckey -> values of the table's live rows: a copy, for before/after
    comparisons."""
    return {k: dict(r.values) for k, r in table.rows.items() if not r.tombstone}


def fast_config(**kwargs) -> ExecutorConfig:
    """Executor config for the test suite."""
    kwargs.setdefault("engine", EngineConfig())
    return ExecutorConfig(**kwargs)


def run_text(text: str, name: str = "<test>", **kwargs):
    """Parse and run a history, returning (output, monitor)."""
    prog = parse_history(text, source_name=name)
    monitor = Monitor(prog, fast_config(**kwargs))
    output = monitor.run()
    return output, monitor


def finish(op):
    """Run a started engine operation to its end and return its result;
    fails if the operation parks."""
    try:
        lock = next(op)
    except StopIteration as done:
        return done.value
    raise AssertionError(f"operation parked on {lock}")


def _finishing(name: str):
    def call(self, *args, **kwargs):
        return finish(getattr(Engine, name)(self, *args, **kwargs))

    call.__name__ = name
    return call


#: An engine whose parking operations are plain calls that must not park;
#: :class:`OpThread` steps the same operations one park at a time.
FinishingEngine = type("FinishingEngine", (Engine,), {name: _finishing(name) for name in PARKING_OPS})


class OpThread:
    """Step one parking operation of an engine, so tests can observe it
    park: ``OpThread(engine.read_item, txn, ...)`` runs the operation until
    it completes or parks, and each query resumes it while the engine has
    settled the lock request it is parked on."""

    def __init__(self, op, *args, **kwargs):
        self.frame = getattr(Engine, op.__name__)(op.__self__, *args, **kwargs)
        self.lock = None  # the lock request it last parked on
        self.result = None
        self.error = None
        self._done = False
        self._step()

    def _step(self) -> None:
        while not self._done and (self.lock is None or self.lock.outcome is not None):
            try:
                self.lock = next(self.frame)
            except StopIteration as done:
                self.result, self._done = done.value, True
            except Exception as exc:  # noqa: BLE001 - surfaced via .outcome()
                self.error, self._done = exc, True

    def done(self) -> bool:
        self._step()
        return self._done

    def still_blocked(self) -> bool:
        return not self.done()

    def outcome(self):
        assert self.done(), f"operation still parked on {self.lock}"
        if self.error is not None:
            raise self.error
        return self.result
