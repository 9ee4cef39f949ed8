"""Golden digests of the reference runs: what each run writes and how it locks.

Each reference run is one history on a fresh engine: every history of the six
reference campaigns, three long histories, the short ones and the
incremental-scope ones written below, and the RU scenario with and without RU writes.  Its digest is a
short SHA-256 over the serialized output history and the engine's lock events,
encoded field by field.  ``reference_runs.sha256`` holds one digest per run, so
a failure names the first run whose records or lock schedule changed.

A change that means to change outputs regenerates the file in the same commit::

    PYTHONPATH=src python tests/test_reference_runs.py --write
"""

import hashlib
import math
import sys
from pathlib import Path

import pytest

from isoharness.cli import _exec_config, build_parser
from isoharness.engine import (
    EngineConfig,
    ItemResource,
    LockEvent,
    LockScope,
    PredicateResource,
    RangeResource,
)
from isoharness.executor import ExecutorConfig, Monitor
from isoharness.generator import DEFAULT_VARIANT, generate_matrix, ru_scenario
from isoharness.notation import parse_history, render_predicate
from isoharness.outhist import serialize

DIGESTS = Path(__file__).with_name("reference_runs.sha256")

#: The reference campaigns, as the arguments of ``isoharness campaign``.
CAMPAIGNS = (
    "",
    "--variants insert,delete,set_update,partial",
    "--lock-scope incremental",
    "--rows 2000 --lock-scope incremental --variants insert,delete,set_update",
    "--strictness strict",
    "--lock-scope table --variants insert,delete,set_update,partial",
)

#: Long histories: (name, rows, text).
LONG_HISTORIES = (
    ("set_update_333_rows", 1000,
     "PRED(S, k3=1) PRED(P, k5=0) IL1(RC) IL2(RC) SU1(S, 5) PR2(P;recval;all) C1 C2"),
    ("paged_drained_cursor", 2000,
     "PRED(P, k2=0 and k3=0) IL1(RR) IL2(RC) PR1(P;recval;100) PR1(P;recval;100)"
     " PR1(P;reckey;recval;all) I2(N;reckey;recval;k2;k3, 1250;7;0;0) C1 C2"),
    ("count_and_sum", 2000,
     "PRED(P, k2=0) MAP(A, 300) IL1(SR) IL2(RC) PR1(P;count(*);all)"
     " SS1(P, sum(recval)) W2(A, 5) C1 C2"),
)


#: Runs no campaign makes: a transaction begun implicitly, at RC or at the
#: history's ``default_level``, a run that ends stuck, and a rollback of a row
#: written twice, which only undo in reverse order restores.  (name, text).
SHORT_HISTORIES = (
    ("implicit_begins_at_rc", "W1(A, 5) R2(A) C1 C2"),
    ("implicit_begin_at_metadata_level",
     "#: default_level=SR\nPRED(P, k2=0) PR1(P;reckey;all) IL2(RC) W2(A, 5) C1 C2"),
    ("stuck_with_t2_blocked", "W1(A, 5) W2(A, 6) W2(B, 1) C2"),
    ("rollback_of_a_row_written_twice", "IL1(RC) IL2(RC) W1(A, 1) W1(A, 2) A1 R2(A, X) C2"),
)

#: Runs in incremental scope: a deadlock whose victim holds a SHORT range
#: lock, and a set update beside a reader that holds 100 LONG range locks,
#: none of which covers a row it writes.  (name, rows, text).
INCREMENTAL_HISTORIES = (
    ("deadlock_victim_holds_a_short_range_lock", 200,
     "PRED(P, k2=0 and k3=0) MAP(X, 700) IL2(RC) IL1(RC) W2(X) PR1(P;reckey;all)"
     " I2(N;reckey;k2;k3, 50;0;0) C1 C2"),
    ("set_update_beside_100_range_locks", 2000,
     "PRED(P, reckey>0) PRED(Q, reckey>60000 and k3=0) IL1(SR) IL2(RC) PR1(P;reckey;100)"
     " SU2(Q) C1 C2"),
)


def reference_runs():
    """(run name, program, config) of every reference run, in file order."""
    for flags in CAMPAIGNS:
        args = build_parser().parse_args(["campaign", *flags.split()])
        variants = tuple(args.variants.split(",")) if args.variants else (DEFAULT_VARIANT,)
        config = _exec_config(args)
        for prog in generate_matrix(variants=variants):
            yield f"campaign {flags} :: {prog.source_name}".replace("  ", " "), prog, config
    for name, rows, text in LONG_HISTORIES:
        yield f"history :: {name}", parse_history(text, source_name=name), ExecutorConfig(rows=rows)
    for name, text in SHORT_HISTORIES:
        yield f"history :: {name}", parse_history(text, source_name=name), ExecutorConfig()
    incremental = EngineConfig(lock_scope=LockScope.INCREMENTAL_RANGE)
    for name, rows, text in INCREMENTAL_HISTORIES:
        yield (f"history :: {name}", parse_history(text, source_name=name),
               ExecutorConfig(rows=rows, engine=incremental))
    yield "history :: ru_scenario", ru_scenario(), ExecutorConfig()
    yield ("history :: ru_scenario --ru-writes-allowed", ru_scenario(),
           ExecutorConfig(engine=EngineConfig(ru_writes_allowed=True)))


def _bound(x) -> str:
    return str(x) if math.isinf(x) else str(int(x))


def _resource_text(resource) -> str:
    if isinstance(resource, ItemResource):
        return f"item:{resource.reckey}"
    if isinstance(resource, PredicateResource):
        return "predicate:" + render_predicate(resource.predicate, compact=True)
    if isinstance(resource, RangeResource):
        return f"range:{_bound(resource.low)},{_bound(resource.high)}"
    raise TypeError(f"no text for lock resource {resource!r}")


def event_text(ev: LockEvent) -> str:
    """One lock event, field by field: no ``repr`` of a dataclass or an enum."""
    return " ".join((str(ev.seq), str(ev.txn), ev.action, _resource_text(ev.resource),
                     ev.mode.value, ev.duration.value, ev.reason))


def run_digest(prog, config) -> str:
    monitor = Monitor(prog, config)
    text = serialize(monitor.run())
    events = "\n".join(event_text(ev) for ev in monitor.engine.lock_events)
    return hashlib.sha256(f"{text}\n{events}\n".encode()).hexdigest()[:16]


def current_digests() -> dict:
    return {name: run_digest(prog, config) for name, prog, config in reference_runs()}


def read_digests() -> dict:
    digests = {}
    for line in DIGESTS.read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def test_reference_runs_match_the_committed_digests():
    expected = read_digests()
    actual = current_digests()
    assert list(actual) == list(expected), "the set of reference runs changed"
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} runs differ, first: {changed[0]}"


@pytest.mark.parametrize("scope, resource", [
    (LockScope.PREDICATE, "predicate:(k2=0)"),
    (LockScope.INCREMENTAL_RANGE, "range:0,100"),
    (LockScope.TABLE, "range:0,inf"),
])
def test_lock_event_text_names_each_field(scope, resource):
    prog = parse_history("PRED(P, k2=0) IL1(SR) IL2(RC) PR1(P;reckey;1) W2(A, 5) C1 C2", "t")
    monitor = Monitor(prog, ExecutorConfig(engine=EngineConfig(lock_scope=scope)))
    monitor.run()
    assert [event_text(ev) for ev in monitor.engine.lock_events] == [
        f"4 1 ACQUIRE {resource} S LONG ",
        f"10 1 RELEASE {resource} S LONG TERMINATION",
        "11 2 ACQUIRE item:100 X LONG ",
        "16 2 RELEASE item:100 X LONG TERMINATION",
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_reference_runs.py --write")
    digests = current_digests()
    DIGESTS.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()))
    print(f"wrote {len(digests)} digests to {DIGESTS}")
