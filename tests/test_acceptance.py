"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criterion 2 runs the default campaign and asserts the stated
runtime bound.
"""

import random
import time
from contextlib import contextmanager

import pytest

from isoharness.analyzer import Verdict, detect_pairs, header_levels
from isoharness.cli import main, run_campaign
from isoharness.dataset import build_canonical_table, dump_tsv
from isoharness.engine import EngineConfig, LockScope, Strictness
from isoharness.executor import ExecutorConfig, Monitor
from isoharness.generator import PREDICATE_VARIANTS, generate_matrix, ru_scenario
from isoharness.notation import OpKind, parse_history, render_history
from isoharness.outhist import (
    STATUS_BLOCKED,
    STATUS_READONLY,
    STATUS_RESUMED,
    parse_output,
    serialize,
)

from conftest import fast_config, live_rows, run_text
from oracles import (
    check_strict_2pl,
    committed_value_oracle,
    pair_enumeration_oracle,
    replay_committed_state,
    table_rows_oracle,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


# Shared default campaign (criteria 2, 6, 8).
@pytest.fixture(scope="module")
def default_campaign():
    start = time.monotonic()
    report = run_campaign(ExecutorConfig())
    return report, time.monotonic() - start


PERMITTED_CELLS = {
    ("r_w", "RC", "RC"),
    ("r_w", "RC", "RR"),
    ("r_w", "RC", "SR"),
    ("pr_w", "RC", "RC"),
    ("pr_w", "RC", "RR"),
    ("pr_w", "RC", "SR"),
    ("pr_w", "RR", "RC"),
    ("pr_w", "RR", "RR"),
    ("pr_w", "RR", "SR"),
}

_GOLDEN_FIRST_SIX = [
    "100\t10000\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0",
    "200\t20000\t1\t1\t1\t1\t1\t1\t1\t1\t1\t1\t1\t1\t1\t1",
    "300\t30000\t0\t2\t2\t2\t2\t2\t2\t0\t2\t2\t2\t2\t2\t2",
    "400\t40000\t1\t0\t3\t3\t3\t3\t3\t1\t0\t3\t3\t3\t3\t3",
    "500\t50000\t0\t1\t0\t4\t4\t4\t4\t0\t1\t0\t4\t4\t4\t4",
    "600\t60000\t1\t2\t1\t0\t5\t5\t5\t1\t2\t1\t0\t5\t5\t5",
]


def test_criterion_1_table_reproduction(capsys):
    with criterion(1, "table reproduction"):
        start = time.monotonic()
        assert main(["dataset", "dump", "--rows", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t") == [
            "reckey", "recval", "c2", "c3", "c4", "c5", "c6", "c50", "c100",
            "k2", "k3", "k4", "k5", "k6", "k50", "k100",
        ]
        assert lines[1:7] == _GOLDEN_FIRST_SIX
        assert len(lines) == 201
        # cross-check the whole dump against the independent loop
        expected = table_rows_oracle(200)
        header = lines[0].split("\t")
        for line, want in zip(lines[1:], expected):
            got = dict(zip(header, (int(v) for v in line.split("\t"))))
            assert got == want
        assert time.monotonic() - start < 1.0


def test_criterion_2_conflict_matrix(default_campaign, capsys):
    report, elapsed = default_campaign
    with criterion(2, "conflict matrix"):
        assert len(report.cells) == 45
        executed = {
            (c.cls, c.l1, c.l2) for c in report.cells.values() if c.outcome == "EXECUTED"
        }
        assert executed == PERMITTED_CELLS
        blocked = [c for c in report.cells.values() if c.outcome == "BLOCKED"]
        assert len(blocked) == 36
        for cell in blocked:
            pairs = [p for p in detect_pairs(cell.output) if p.cls == cell.cls]
            assert len(pairs) == 1, cell.name
            pair = pairs[0]
            # blocked until the first transaction committed, then resumed
            assert pair.second_blocked, cell.name
            assert pair.second.blocked.seq < pair.first_end_seq, cell.name
            assert pair.second.completion is not None, cell.name
            assert pair.second.completion.status == STATUS_RESUMED, cell.name
            assert pair.second.completion.seq > pair.first_end_seq, cell.name
        assert all(c.verdict is Verdict.CONFORMS for c in report.cells.values())
        assert elapsed < 120.0


def test_criterion_3_ru_scenario():
    with criterion(3, "read-uncommitted scenario"):
        prog = ru_scenario()
        enforced, _ = run_text(render_history(prog), name="ru_scenario")
        w2 = next(r for r in enforced.records if r.op_text.startswith("W2"))
        assert w2.status == STATUS_READONLY
        assert enforced.header.levels == {1: "RU", 2: "RU", 3: "RU", 4: "RU"}

        permissive, _ = run_text(
            render_history(prog), name="ru_scenario",
            engine=EngineConfig(ru_writes_allowed=True),
        )
        recs = permissive.records
        assert all(r.status == "OK" for r in recs)
        r4b = recs[-2]
        assert r4b.op_text == "R4(B=200)"
        # W2 used the default update (10000 + 1); the chain through T3
        # persisted it even though T2 aborted
        assert r4b.values == [10001]
        r4a = recs[-3]
        assert r4a.op_text == "R4(A=100)" and r4a.values == [10000]


def test_criterion_4_incremental_cursor():
    with criterion(4, "incremental cursor locking"):
        matches = [100, 700, 1300, 1900]  # keys satisfying k2=0 and k3=0
        for fetched in (1, 2, 3):
            target = matches[fetched]  # first match beyond the scan frontier
            text = (
                f"PRED(P, k2=0 and k3=0) MAP(B, {target}) IL1(SR) IL2(RC) "
                f"PR1(P;recval;{fetched};A, X) W2(B, 777) PR1(P;recval;all) C2 C1"
            )
            inc, _ = run_text(
                text, engine=EngineConfig(lock_scope=LockScope.INCREMENTAL_RANGE)
            )
            trace = [(r.op_text.split("(")[0], r.status) for r in inc.records]
            assert trace[5] == ("W2", "OK")
            assert trace[6] == ("PR1", STATUS_BLOCKED)
            assert trace[7] == ("C2", "OK")
            assert trace[8] == ("PR1", STATUS_RESUMED)
            assert trace[9] == ("C1", "OK")

            pred, _ = run_text(
                text, engine=EngineConfig(lock_scope=LockScope.PREDICATE)
            )
            trace = [(r.op_text.split("(")[0], r.status) for r in pred.records]
            assert trace[5] == ("W2", STATUS_BLOCKED)
            assert trace[6] == ("PR1", "OK")
            assert trace[7] == ("C1", "OK")
            assert trace[8] == ("W2", STATUS_RESUMED)
            assert trace[9] == ("C2", "OK")


def test_criterion_5_over_restrictive_detection():
    with criterion(5, "over-restrictiveness detection"):
        report = run_campaign(
            ExecutorConfig(engine=EngineConfig(strictness=Strictness.STRICT_ALL_LONG))
        )
        flagged = {
            (c.cls, c.l1, c.l2)
            for c in report.cells.values()
            if c.outcome == "OVER_RESTRICTIVE"
        }
        assert flagged == PERMITTED_CELLS
        rest = [c for c in report.cells.values() if (c.cls, c.l1, c.l2) not in PERMITTED_CELLS]
        assert all(c.outcome == "BLOCKED" and c.verdict is Verdict.CONFORMS for c in rest)


def test_criterion_6_pair_oracle_equivalence(default_campaign):
    report, _ = default_campaign
    with criterion(6, "pair-detection oracle equivalence"):
        checked = 0
        for cell in report.cells.values():
            prog = parse_history(render_history_of(cell.output))
            engine_ops = [s for s in prog.steps if s.kind not in (OpKind.PRED, OpKind.MAP)]
            assert len(engine_ops) <= 6  # corpus histories are small
            got = {
                (p.first.submit_seq, p.second.submit_seq, p.cls, p.concurrent)
                for p in detect_pairs(cell.output)
            }
            want = pair_enumeration_oracle(cell.output)
            assert got == want, cell.name
            checked += 1
        assert checked == 45


def render_history_of(output):
    """Rebuild input-history text from an output header's metadata name via
    the generator (the corpus is deterministic)."""
    meta = output.header.meta
    from isoharness.generator import templates_for
    from isoharness.notation import IsolationLevel

    template = next(
        t for t in templates_for(meta["class"], PREDICATE_VARIANTS)
        if t.variant == meta["variant"]
    ) if meta["class"] in ("w_pr", "pr_w") else templates_for(meta["class"], ())[0]
    prog = template.instantiate(IsolationLevel[meta["l1"]], IsolationLevel[meta["l2"]])
    return render_history(prog)


def _interleavings(prog, rng, mutate_commits):
    """Random merge of per-transaction step streams, declaratives first."""
    declarative = [s for s in prog.steps if s.kind in (OpKind.PRED, OpKind.MAP)]
    streams = {}
    for step in prog.steps:
        if step.kind in (OpKind.PRED, OpKind.MAP):
            continue
        streams.setdefault(step.txn, []).append(step)
    if mutate_commits:
        for txn, steps in streams.items():
            if rng.random() < 0.4 and steps[-1].kind is OpKind.C:
                steps[-1] = type(steps[-1])(kind=OpKind.A, txn=txn)
    order = []
    pools = {t: list(s) for t, s in streams.items()}
    while pools:
        txn = rng.choice(sorted(pools))
        order.append(pools[txn].pop(0))
        if not pools[txn]:
            del pools[txn]
    out = type(prog)(steps=declarative + order, source_name=prog.source_name + "~shuffled")
    return out


_EXTRA_PROPERTY_HISTORIES = [
    # predicate reads returning recval, read-write mixes, delete/insert
    "PRED(P, k2=0 and k3=0) MAP(B, 700) IL1(SR) IL2(RC) "
    "PR1(P;recval;1;A, X) W2(B, 777) PR1(P;recval;all) C2 C1",
    "IL1(RR) IL2(RC) RW1(A, X) R2(A, Y) C1 C2",
    "IL1(RC) IL2(RC) D1(A) I1(B) C1 R2(B, Z) C2",
    "PRED(P, recval<25000) IL1(RC) IL2(RR) SU1(P, 50000) SS2(P, count(*)) C1 C2",
]


def test_criterion_7_engine_property_suite():
    with criterion(7, "engine property suite"):
        corpus = generate_matrix()
        corpus += [
            parse_history(text, source_name=f"extra_{i}")
            for i, text in enumerate(_EXTRA_PROPERTY_HISTORIES)
        ]
        rng = random.Random(20260809)
        initial = table_rows_oracle(200)
        runs = 0
        while runs < 1000:
            base = corpus[runs % len(corpus)]
            prog = _interleavings(base, rng, mutate_commits=True)
            monitor = Monitor(prog, fast_config())
            output = monitor.run()
            # liveness: every blocked request completed or deadlock-aborted
            assert not output.header.stuck, prog.source_name
            # strict two-phase locking
            offences = check_strict_2pl(monitor.engine.lock_events)
            assert not offences, offences
            # no dirty reads at RC and above
            offences = committed_value_oracle(output, initial)
            assert not offences, offences
            # undo exactness: final state equals replay of committed images
            expected = replay_committed_state(output, initial)
            got = live_rows(monitor.engine.table)
            assert got == expected, prog.source_name
            runs += 1

        # deadlock constructions: two- and three-transaction cycles resolve
        # with exactly one victim and the rest complete
        two, _ = run_text("IL1(RC) IL2(RC) W1(A, 1) W2(B, 2) W1(B, 3) W2(A, 4) C1 C2")
        deadlocked = [r for r in two.records if r.status == "ABORTED_DEADLOCK"]
        assert len(deadlocked) == 1 and deadlocked[0].txn == 2
        assert two.finals[1] == "COMMITTED" and two.finals[2] == "ABORTED"

        three, _ = run_text(
            "IL1(RC) IL2(RC) IL3(RC) W1(A, 1) W2(B, 2) W3(E, 3) "
            "W1(B, 9) W2(E, 9) W3(A, 9) C1 C2 C3"
        )
        deadlocked = [r for r in three.records if r.status == "ABORTED_DEADLOCK"]
        assert len(deadlocked) == 1 and deadlocked[0].txn == 3
        assert three.finals[1] == "COMMITTED" and three.finals[2] == "COMMITTED"
        assert three.finals[3] == "ABORTED"


def test_criterion_8_round_trips(default_campaign):
    report, _ = default_campaign
    with criterion(8, "round trips"):
        corpus = generate_matrix(variants=PREDICATE_VARIANTS) + [ru_scenario()]
        for prog in corpus:
            assert parse_history(render_history(prog)) == prog
        for cell in report.cells.values():
            text = serialize(cell.output)
            assert parse_output(text) == cell.output
            assert serialize(parse_output(text)) == text
