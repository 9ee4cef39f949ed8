import gc
import time

import pytest

from isoharness.analyzer import Verdict, analyze_history
from isoharness.engine import Engine, EngineConfig, LockScope, RowNotFound
from isoharness.dataset import build_canonical_table
from isoharness.executor import BindingEnv, RowVarRebound, handle_frame, run_history
from isoharness.notation import IsolationLevel, parse_history, parse_predicate
from isoharness.outhist import (
    STATUS_BLOCKED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RESUMED,
    parse_output,
    serialize,
)

from conftest import fast_config, finish, run_text


# ------------------------------------------------------------ sync behavior


def test_write_write_conflict_trace():
    oh, mon = run_text("IL1(RC) IL2(RC) W1(A, 1001) W2(A, 2002) C1 C2")
    statuses = [(r.op_text, r.status) for r in oh.records]
    assert statuses == [
        ("IL1(RC)", STATUS_OK),
        ("IL2(RC)", STATUS_OK),
        ("W1(A=100,1001)", STATUS_OK),
        ("W2(A=100,2002)", STATUS_BLOCKED),
        ("C1", STATUS_OK),
        ("W2(A=100,2002)", STATUS_RESUMED),
        ("C2", STATUS_OK),
    ]
    resumed = oh.records[5]
    assert resumed.resumed_of == oh.records[3].seq
    assert mon.engine.table.rows[100].values["recval"] == 2002
    assert oh.finals == {1: "COMMITTED", 2: "COMMITTED"}


def test_single_txn_output_order_equals_input_order():
    oh, _ = run_text("IL1(RC) R1(A, X) W1(A, 5) R1(A, Y) C1")
    assert [r.submit_seq for r in oh.records] == [1, 2, 3, 4, 5]
    assert all(r.status == STATUS_OK for r in oh.records)
    assert oh.records[3].values == [5]


def test_deferred_steps_run_after_resume():
    # C2 is reached while txn 2 is blocked; it must run only after W2 resumes
    oh, _ = run_text("IL1(RC) IL2(RC) W1(A, 1) W2(A, 2) C2 C1")
    ops = [(r.op_text, r.status) for r in oh.records]
    assert ops[3] == ("W2(A=100,2)", STATUS_BLOCKED)
    assert ops[4] == ("C1", STATUS_OK)
    assert ops[5] == ("W2(A=100,2)", STATUS_RESUMED)
    assert ops[6] == ("C2", STATUS_OK)


def test_history_stuck_detection():
    # T1 never commits, so T2 can never resume and C2 can never run
    oh, _ = run_text("IL1(RC) IL2(RC) W1(A, 1) W2(A, 2) C2")
    assert oh.header.stuck
    assert oh.finals[2] == "BLOCKED"


def test_unterminated_history_not_stuck():
    oh, _ = run_text("IL1(RC) IL2(RC) W1(A, 1) W2(A, 2)")
    assert not oh.header.stuck
    assert oh.finals == {1: "ACTIVE", 2: "BLOCKED"}


def test_sync_determinism():
    text = "PRED(P, k2=0 and k3=0) IL1(SR) IL2(RC) PR1(P;reckey;all) I2(B;k2;k3, 0;0) C1 C2"
    a, _ = run_text(text)
    b, _ = run_text(text)
    assert serialize(a) == serialize(b)


def test_default_level_from_metadata():
    for name in ("SR", "sr"):  # a level name in any case
        oh, _ = run_text(f"#: default_level={name}\nW1(A, 1) C1")
        assert oh.header.levels == {1: "SR"}
        assert oh.header.default_level == "SR"


# --------------------------------------------------------------- bindings


def test_map_then_read_binds_value_var():
    _, mon = run_text("MAP(A, 100) IL1(RC) R1(A, X) C1")
    assert mon.env.row_vars == {"A": 100}
    assert mon.env.value_vars == {"X": 10000}


def test_fresh_row_vars_bind_ascending():
    _, mon = run_text("MAP(A, 100) IL1(RC) R1(B, Y) W1(E, 7) C1")
    assert mon.env.row_vars == {"A": 100, "B": 200, "E": 300}


def test_value_variable_flows_between_transactions():
    oh, mon = run_text("IL1(RC) IL3(RC) R3(A, A0) W3(B, A0) C3 R1(B, Z) C1")
    assert mon.env.value_vars["A0"] == 10000
    assert mon.engine.table.rows[200].values["recval"] == 10000
    assert mon.env.value_vars["Z"] == 10000


def test_unbound_value_variable_errors():
    # the record shows the row as it stood when resolution failed: unbound
    oh, _ = run_text("IL1(RC) W1(A, X9) C1")
    rec = oh.records[1]
    assert rec.status == STATUS_ERROR and rec.error_code == "UnboundValueVar"
    assert "2 2 W1(A,X9) ERROR=UnboundValueVar" in serialize(oh).splitlines()


def test_unbound_predicate_errors():
    oh, _ = run_text("IL1(RC) PR1(P;recval;1) C1")
    rec = oh.records[1]
    assert rec.status == STATUS_ERROR and rec.error_code == "UnboundPredicate"


def test_insert_binds_row_var_to_new_key():
    oh, mon = run_text("IL1(RC) I1(B) C1")
    assert mon.env.row_vars == {"B": 150}
    assert "B=150" in oh.records[1].op_text


def test_insert_on_bound_row_var_rejected():
    oh, _ = run_text("MAP(A, 100) IL1(RC) I1(A) C1")
    rec = oh.records[2]
    assert rec.status == STATUS_ERROR and rec.error_code == "RowVarRebound"
    assert "3 3 I1(A=100) ERROR=RowVarRebound" in serialize(oh).splitlines()


def test_parked_insert_claims_its_row_variable():
    # I2 parks behind T1's predicate lock.  Until it completes, B belongs to
    # it: W1(B) fails with no engine effect instead of auto-binding row 100,
    # and R2 reads the row the insert bound.
    oh, mon = run_text(
        "PRED(P, reckey<=200) IL1(SR) IL2(RC) PR1(P;reckey;all) I2(B) W1(B, 5) R2(B, X) C1 C2")
    lines = serialize(oh).splitlines()
    assert "5 5 I2(B) BLOCKED" in lines
    assert "6 6 W1(B,5) ERROR=RowVarRebound" in lines
    assert any(line.startswith("8 5 I2(B=150) RESUMED=5 BEFORE=ABSENT ") for line in lines)
    assert "9 8 R2(B=150,X) OK VALUES=15000" in lines
    assert mon.engine.table.rows[100].values["recval"] == 10000
    assert mon.env.row_vars == {"B": 150}


def test_parked_insert_row_variable_rejects_map_and_predicate_binding():
    oh, mon = run_text(
        "PRED(P, reckey<=200) IL1(SR) IL2(RC) PR1(P;reckey;all) I2(B) MAP(B, 300) "
        "PR1(P;recval;1;B, X) C1 C2")
    lines = serialize(oh).splitlines()
    assert "6 6 MAP(B,300) ERROR=RowVarRebound" in lines
    assert "7 7 PR1(P;recval;1;B,X) ERROR=RowVarRebound" in lines
    assert mon.env.row_vars == {"B": 150} and "X" not in mon.env.value_vars


def test_failed_insert_releases_its_row_variable():
    oh, _ = run_text("IL1(RU) IL2(RC) I1(B) W2(B, 5) C1 C2")
    lines = serialize(oh).splitlines()
    assert "3 3 I1(B) READONLY_VIOLATION" in lines
    assert any(line.startswith("4 4 W2(B=100,5) OK ") for line in lines)


def test_map_rebind_conflict():
    oh, _ = run_text("MAP(A, 100) MAP(A, 300)")
    assert oh.records[1].status == STATUS_ERROR
    assert oh.records[1].error_code == "RowVarRebound"


def test_pr_binds_row_and_value_vars():
    _, mon = run_text("PRED(P, k2=1 and k3<2) IL1(RC) PR1(P;recval;1;A, X) C1")
    assert mon.env.row_vars["A"] == 200
    assert mon.env.value_vars["X"] == 20000


# ------------------------------------------------------------------ frames


def _stepper(**predicates):
    """An engine with transaction 1 begun at RC, a binding environment with
    ``predicates`` declared, and a function that carries out one step of
    transaction 1 through :func:`handle_frame`, with no monitor around it."""
    engine = Engine(build_canonical_table(200), EngineConfig())
    env = BindingEnv(pred_vars={name: parse_predicate(text) for name, text in predicates.items()})
    engine.begin(1, IsolationLevel.RC)

    def run(step_text):
        return finish(handle_frame(engine, env, parse_history(step_text).steps[0]))

    return engine, env, run


def test_read_frame_response():
    _, env, run = _stepper()
    assert run("R1(A)") == ([10000], [])  # A auto-binds to row 100
    assert env.row_vars == {"A": 100}


def test_frame_binds_what_its_result_carries():
    _, env, run = _stepper(P="k2=1 and k3<2")
    assert run("PR1(P;recval;1;A, X)") == ([(200, 20000)], [])
    assert env.row_vars == {"A": 200} and env.value_vars == {"X": 20000}
    values, images = run("I1(B)")
    assert values is None and [img.reckey for img in images] == [150]
    assert env.row_vars == {"A": 200, "B": 150}


def test_missing_row_failure_frame():
    engine, env, _ = _stepper()
    env.row_vars["A"] = 99999
    with pytest.raises(RowNotFound) as info:
        finish(handle_frame(engine, env, parse_history("W1(A, 7)").steps[0]))
    assert info.value.code == "RowNotFound"


def test_pr_frame_roundtrip():
    engine, _, run = _stepper(P="(k2=1)and(k3<2)", Q="k2=1")
    assert run("PR1(P;recval;1)") == ([(200, 20000)], [])
    values, images = run("PR1(P;reckey;all)")
    assert values[:2] == [400, 800] and not images  # continues past position 200
    assert "P" not in engine.txns[1].cursors  # the drain closed the cursor
    assert run("PR1(Q;count(*);1)") == ([100], [])


def test_su_and_ss_frames():
    _, _, run = _stepper(P="reckey=100", S="reckey<=200")
    values, images = run("SU1(P, 5)")
    assert values == [1]
    assert [(img.reckey, img.before.values["recval"], img.after.values["recval"])
            for img in images] == [(100, 10000, 10005)]
    assert run("SS1(S, sum(recval))") == ([30005], [])
    assert run("SS1(S, count(*))") == ([2], [])


def test_pred_and_map_frames_only_bind():
    engine, env, run = _stepper()
    pred = parse_history("PRED(P, k2=1)").steps[0]
    assert finish(handle_frame(engine, env, pred)) == (None, [])
    assert env.pred_vars == {"P": pred.predicate}
    assert run("MAP(A, 300)") == (None, [])
    assert run("MAP(A, 300)") == (None, [])  # the key it holds binds again
    with pytest.raises(RowVarRebound):
        run("MAP(A, 100)")
    env.inserting.add("B")  # an insert under way will bind B
    with pytest.raises(RowVarRebound):
        run("MAP(B, 200)")
    assert env.row_vars == {"A": 300}
    assert list(engine.txns) == [1] and not engine.lock_events  # no engine call


@pytest.mark.parametrize("step", [
    "R1(A)", "W1(B, 7)", "RW1(E)", "I1(N;recval;k2, 5;1)", "D1(F)",
    "PR1(P;recval;k2;all)", "PR1(Q;count(*);1)", "SU1(P, 5)", "SS1(P, count(*))",
])
def test_request_outcome_is_what_its_record_reads_back(step):
    # a record carries the request's (values, images); written to an output
    # history and read back, it is equal
    text = f"PRED(P, k3=0) PRED(Q, k2=1) IL1(RC) {step} C1"
    oh, mon = run_text(text)
    rec = oh.records[3]
    assert rec.status == STATUS_OK and (rec.values is not None or rec.images)
    assert parse_output(serialize(oh)).records[3] == rec


@pytest.mark.parametrize("text, line", [
    ("IL1(RC) I1(N;reckey, 0) C1", "2 2 I1(N;reckey,0) ERROR=InvalidWrite"),
    # an RU read of a row whose delete is not yet committed
    ("IL1(RC) IL2(RU) D1(A) R2(A) C1 C2", "4 4 R2(A=100) ERROR=RowNotFound"),
])
def test_engine_error_becomes_its_record(text, line):
    oh, _ = run_text(text)
    assert line in serialize(oh).splitlines()
    assert oh.finals == {txn: "COMMITTED" for txn in oh.header.levels}


def test_worker_failure_becomes_an_error_record(monkeypatch):
    # an engine operation that raises a non-engine exception gives an
    # InternalError record, and the run goes on to its end
    def broken(self, *args, **kwargs):
        raise RuntimeError("broken engine")

    monkeypatch.setattr(Engine, "read_item", broken)
    oh, _ = run_text("IL1(RC) R1(A) C1")
    assert not oh.header.stuck
    assert [(r.op_text, r.status, r.error_code) for r in oh.records] == [
        ("IL1(RC)", STATUS_OK, None),
        ("R1(A=100)", STATUS_ERROR, "InternalError"),
        ("C1", STATUS_OK, None),
    ]
    assert oh.finals == {1: "COMMITTED"}


# ------------------------------------------------------------- dispatch


def test_multi_lock_op_reblocks_on_second_holder():
    # the set update must pass two long read locks held by different
    # transactions: it blocks, resumes when T1 commits, blocks again on T3,
    # and completes only after C3; the monitor must not stall in between
    text = (
        "PRED(P, reckey<=300 and k2=0) MAP(A, 100) MAP(E, 300) "
        "IL1(RR) IL2(RC) IL3(RR) R1(A, X) R3(E, Y) SU2(P, 7) C1 C3 C2"
    )
    oh, mon = run_text(text)
    assert not oh.header.stuck
    su_records = [r for r in oh.records if r.op_text.startswith("SU2")]
    assert [r.status for r in su_records] == [STATUS_BLOCKED, STATUS_RESUMED]
    assert su_records[-1].values == [2]
    ops = [r.op_text.split("(")[0] for r in oh.records]
    assert ops.index("C1") < ops.index("C3") < len(ops) - 1
    assert mon.engine.table.rows[100].values["recval"] == 10007
    assert mon.engine.table.rows[300].values["recval"] == 30007
    assert oh.finals == {1: "COMMITTED", 2: "COMMITTED", 3: "COMMITTED"}


def test_run_history_wrapper():
    prog = parse_history("IL1(RC) W1(A, 1) C1")
    oh = run_history(prog, fast_config())
    assert oh.finals == {1: "COMMITTED"}


# ------------------------------------------------- records in engine order


def test_deadlock_victim_recorded_before_survivor_completes():
    # W2(A) parks on T1; W1(B) closes the cycle and the younger T2, an
    # earlier waiter, is the victim: its abort precedes the survivor's write
    for _ in range(5):
        oh, mon = run_text("IL1(RR) IL2(RC) W1(A, 1) W2(B, 2) W2(A, 9) W1(B, 9) A2 C1")
        statuses = [(r.op_text.split("(")[0], r.status) for r in oh.records[4:7]]
        assert statuses == [("W2", STATUS_BLOCKED), ("W2", "ABORTED_DEADLOCK"), ("W1", STATUS_OK)]
        assert analyze_history(oh).verdict is Verdict.CONFORMS
        assert oh.finals == {1: "COMMITTED", 2: "ABORTED"}
        assert mon.engine.table.rows[200].values["recval"] == 9


def test_slow_scan_that_never_waits_is_not_blocked(monkeypatch):
    # The real scan plus a sleep: slow, but it never parks, so it is OK.
    rows, pause = 5000, 0.05
    scan = Engine.predicate_read
    took = []

    def slow_scan(self, *args, **kwargs):
        t0 = time.perf_counter()
        result = yield from scan(self, *args, **kwargs)
        time.sleep(pause)
        took.append(time.perf_counter() - t0)
        return result

    monkeypatch.setattr(Engine, "predicate_read", slow_scan)
    oh, _ = run_text("PRED(P, k2=0 and k3=0) IL1(RC) PR1(P;reckey;all) C1", rows=rows)
    assert len(took) == 1 and took[0] > pause
    assert not oh.header.stuck
    scan = [r for r in oh.records if r.op_text.startswith("PR1")]
    assert [r.status for r in scan] == [STATUS_OK]
    assert len(scan[0].values) == rows // 6 + 1


# ------------------------------------------------------------- one thread


def _records_and_lock_events(text, **kwargs):
    oh, mon = run_text(text, **kwargs)
    events = [(ev.seq, ev.txn, ev.action, ev.resource, ev.mode, ev.duration, ev.reason)
              for ev in mon.engine.lock_events]
    return serialize(oh), events


@pytest.mark.parametrize("text", [
    "MAP(A, 100) IL1(RC) IL2(RC) IL3(RC) W1(A) R2(A) R3(A) C1 C2 C3",
    "PRED(P, k2=0 and k3=0) MAP(A, 700) IL1(RC) IL2(RC) IL3(RC) W1(A)"
    " PR2(P;reckey;all) PR3(P;recval;all) C1 C2 C3",
])
def test_a_commit_that_settles_two_requests_gives_one_output(text):
    # C1 settles the parked requests of T2 and T3 at once: they resume in
    # the order they were granted (FIFO), in every run
    first = _records_and_lock_events(text)
    for _ in range(19):
        assert _records_and_lock_events(text) == first
    resumed = [r.txn for r in parse_output(first[0]).records if r.status == STATUS_RESUMED]
    assert resumed == [2, 3]


def test_a_request_parked_when_the_run_ends_logs_nothing_afterwards():
    # PR1 holds the short range lock (0, 100] while it waits for T2's write
    # at 700, and R3 waits for the same write; the run ends with both
    # parked, and closing them releases nothing
    oh, mon = run_text("PRED(P, k2=0 and k3=0) MAP(X, 700) IL1(RC) IL2(RC) IL3(RC) W2(X)"
                       " PR1(P;reckey;all) R3(X, Y)",
                       engine=EngineConfig(lock_scope=LockScope.INCREMENTAL_RANGE))
    engine = mon.engine
    logged = len(engine.lock_events)
    assert 1 in mon.parked and 3 in mon.parked
    del mon
    gc.collect()
    assert len(engine.lock_events) == logged
    assert serialize(oh).endswith("# final: 1=BLOCKED 2=ACTIVE 3=BLOCKED\n")


def test_count_reads_the_whole_predicate_beside_a_cursor():
    # a count(*) neither reads nor moves the variable's cursor
    oh, _ = run_text("PRED(P, k2=0 and k3=0) IL1(RC) PR1(P;count(*);1) PR1(P;count(*);1)"
                     " PR1(P;reckey;2) PR1(P;count(*);all) C1")
    reads = [r.values for r in oh.records if r.op_text.startswith("PR1")]
    assert reads == [[34], [34], [100, 700], [34]]
