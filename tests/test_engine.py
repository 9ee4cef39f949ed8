import math
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from isoharness.dataset import build_canonical_table
from isoharness.engine import (
    CursorLimitExceeded,
    DeadlockAbort,
    DuplicateKey,
    DuplicateTxn,
    Engine,
    EngineConfig,
    InvalidWrite,
    IsolationLevel as IL,
    ItemResource,
    LockDuration,
    LockMode,
    LockScope,
    PredicateResource,
    RangeResource,
    ReadOnlyViolation,
    RowNotFound,
    Strictness,
    TxnStatus,
    UnknownTxn,
)
from isoharness.notation import UnknownColumn, parse_predicate

from conftest import FinishingEngine, OpThread, copy_row, held_locks, live_rows, run_text
from oracles import table_rows_oracle


def make_engine(rows=200, scope=LockScope.PREDICATE, strict=False, ru_writes=False):
    table = build_canonical_table(rows)
    config = EngineConfig(
        lock_scope=scope,
        strictness=Strictness.STRICT_ALL_LONG if strict else Strictness.PER_LEVEL,
        ru_writes_allowed=ru_writes,
    )
    return FinishingEngine(table, config)


PRED_K = parse_predicate("k2=1 and k3<2")

X, S = LockMode.X, LockMode.S
LONG = LockDuration.LONG


def lock_trace(e):
    """The engine's lock events without their event numbers."""
    return [(ev.action, ev.txn, ev.resource, ev.mode, ev.duration, ev.reason)
            for ev in e.lock_events]


# ----------------------------------------------------------------- begin


def test_begin_sets_level_and_status():
    e = make_engine()
    st = e.begin(1, IL.SR)
    assert st.level is IL.SR
    assert st.status is TxnStatus.ACTIVE


def test_begin_twice_rejected():
    e = make_engine()
    e.begin(1, IL.RC)
    with pytest.raises(DuplicateTxn):
        e.begin(1, IL.RC)


def test_ru_write_rejected():
    e = make_engine()
    e.begin(2, IL.RU)
    with pytest.raises(ReadOnlyViolation):
        e.write_item(2, 100, None)


def test_ru_write_allowed_when_configured():
    e = make_engine(ru_writes=True)
    e.begin(2, IL.RU)
    image = e.write_item(2, 100, None)
    assert image.after.values["recval"] == 10001


# ----------------------------------------------------------------- reads


def test_read_fresh_value():
    e = make_engine()
    e.begin(1, IL.RC)
    assert e.read_item(1, 100, "recval") == 10000


def test_read_missing_row():
    e = make_engine()
    e.begin(1, IL.RC)
    with pytest.raises(RowNotFound):
        e.read_item(1, 99999)


def test_read_other_columns():
    e = make_engine()
    e.begin(1, IL.RC)
    assert e.read_item(1, 400, "k2") == 1
    assert e.read_item(1, 400, "c100") == 3
    with pytest.raises(UnknownColumn):
        e.read_item(1, 400, "k7")


def test_read_blocked_by_uncommitted_write_then_resumes():
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.write_item(2, 100, {"recval": 1001})
    reader = OpThread(e.read_item, 1, 100, "recval")
    assert e.request_state(1) == "WAITING"
    assert reader.still_blocked()
    e.commit(2)
    assert reader.outcome() == 1001


def test_ru_read_sees_dirty_value():
    e = make_engine()
    e.begin(1, IL.RU)
    e.begin(2, IL.RC)
    e.write_item(2, 100, {"recval": 1001})
    assert e.read_item(1, 100, "recval") == 1001  # no lock, current image


def test_short_read_lock_at_rc_released():
    e = make_engine()
    e.begin(1, IL.RC)
    e.read_item(1, 100)
    assert held_locks(e, 1) == []


def test_long_read_lock_at_rr_held():
    e = make_engine()
    e.begin(1, IL.RR)
    e.read_item(1, 100)
    held = held_locks(e, 1)
    assert len(held) == 1 and held[0].duration is LockDuration.LONG


# ----------------------------------------------------------------- writes


def test_write_literal():
    e = make_engine()
    e.begin(1, IL.RC)
    e.write_item(1, 100, {"recval": 1001})
    assert e.table.rows[100].values["recval"] == 1001


def test_write_default_increments():
    e = make_engine()
    e.begin(1, IL.RC)
    image = e.write_item(1, 100, None)
    assert image.before.values["recval"] == 10000
    assert image.after.values["recval"] == 10001


def test_write_rejects_bad_columns_before_locking():
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.write_item(2, 100, None)  # a lock the bad writes would have to wait for
    with pytest.raises(UnknownColumn):
        e.write_item(1, 100, {"k7": 1})
    with pytest.raises(InvalidWrite):
        e.write_item(1, 100, {"reckey": 150})
    assert held_locks(e, 1) == []
    assert lock_trace(e) == [("ACQUIRE", 2, ItemResource(100), X, LONG, "")]


def test_write_into_held_predicate_blocks():
    # a completed predicate read at SR leaves a long predicate lock; a write
    # that touches a matching row must wait
    e = make_engine()
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    rows = e.predicate_read(1, "P", PRED_K, ("recval",), "all")
    assert rows[0] == (200, 20000)
    writer = OpThread(e.write_item, 2, 200, {"k2": 0})
    assert e.request_state(2) == "WAITING"
    assert writer.still_blocked()
    e.commit(1)
    writer.outcome()


def test_write_outside_predicate_not_blocked():
    e = make_engine()
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    e.predicate_read(1, "P", PRED_K, ("recval",), "all")
    e.write_item(2, 100, {"recval": 5})  # row 100 has k2=0, outside P
    assert e.table.rows[100].values["recval"] == 5


# ----------------------------------------------------------------- rw


def test_rw_reads_then_increments():
    e = make_engine()
    e.begin(1, IL.RC)
    value, image = e.rw_item(1, 100)
    assert value == 10000
    assert image.after.values["recval"] == 10001


def test_rw_twice_sequential():
    e = make_engine()
    e.begin(1, IL.RC)
    e.rw_item(1, 100)
    value, image = e.rw_item(1, 100)
    assert value == 10001
    assert image.after.values["recval"] == 10002


def test_rw_concurrent_blocks():
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.rw_item(1, 100)
    other = OpThread(e.rw_item, 2, 100)
    assert e.request_state(2) == "WAITING"
    assert other.still_blocked()
    e.commit(1)
    assert other.outcome()[0] == 10001


def test_rw_behind_committed_delete_finds_no_row():
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.delete_item(1, 100)
    other = OpThread(e.rw_item, 2, 100)
    assert e.request_state(2) == "WAITING"
    e.commit(1)
    with pytest.raises(RowNotFound):
        other.outcome()
    assert [(g.resource, g.mode) for g in held_locks(e, 2)] == [(ItemResource(100), X)]
    assert e.txns[2].undo == []
    assert lock_trace(e) == [
        ("ACQUIRE", 1, ItemResource(100), X, LONG, ""),
        ("RELEASE", 1, ItemResource(100), X, LONG, "TERMINATION"),
        ("ACQUIRE", 2, ItemResource(100), X, LONG, ""),
    ]


# ----------------------------------------------------------------- insert


def test_insert_with_values():
    e = make_engine()
    e.begin(2, IL.RC)
    key, image = e.insert_item(2, 350, {"recval": 3000, "k2": 0, "k3": 2})
    assert key == 350
    row = e.table.rows[350]
    assert row.values["recval"] == 3000
    assert row.values["k2"] == 0 and row.values["k3"] == 2
    assert image.before is None


def test_insert_auto_key_sequence():
    e = make_engine()
    e.begin(1, IL.RC)
    assert e.insert_item(1, None, {})[0] == 150
    assert e.insert_item(1, None, {})[0] == 250


def test_insert_defaults():
    e = make_engine()
    e.begin(1, IL.RC)
    key, _ = e.insert_item(1, None, {})
    row = e.table.rows[key]
    assert row.values["recval"] == key * 100
    assert all(row.values[c] == 0 for c in ("k2", "k3", "k100", "c2", "c100"))


def test_insert_duplicate_key():
    e = make_engine()
    e.begin(1, IL.RC)
    with pytest.raises(DuplicateKey):
        e.insert_item(1, 100, {})


def test_insert_rejects_an_unknown_column_before_locking():
    e = make_engine()
    e.begin(1, IL.RC)
    with pytest.raises(UnknownColumn):
        e.insert_item(1, 350, {"recval": 1, "k7": 0})
    assert 350 not in e.table.rows and e.lock_events == [] and e.txns[1].undo == []


def test_phantom_insert_blocked_at_sr():
    e = make_engine()
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    e.predicate_read(1, "P", parse_predicate("k2=0"), ("reckey",), "all")
    inserter = OpThread(e.insert_item, 2, None, {"k2": 0})
    assert e.request_state(2) == "WAITING"
    assert inserter.still_blocked()
    e.commit(1)
    inserter.outcome()


# ----------------------------------------------------------------- delete


def test_delete_own_write_visibility():
    e = make_engine()
    e.begin(1, IL.RC)
    e.delete_item(1, 100)
    with pytest.raises(RowNotFound):
        e.read_item(1, 100)


def test_delete_rollback_restores():
    e = make_engine()
    e.begin(1, IL.RC)
    before = copy_row(e.table.rows[100])
    e.delete_item(1, 100)
    e.rollback(1)
    assert e.table.rows[100] == before


def test_delete_blocked_by_long_read_lock():
    e = make_engine()
    e.begin(1, IL.RR)
    e.begin(2, IL.RC)
    e.read_item(1, 100)
    deleter = OpThread(e.delete_item, 2, 100)
    assert e.request_state(2) == "WAITING"
    assert deleter.still_blocked()
    e.commit(1)
    deleter.outcome()
    assert e.table.rows[100].tombstone


def test_delete_commit_removes_row():
    e = make_engine()
    e.begin(1, IL.RC)
    e.delete_item(1, 100)
    e.commit(1)
    assert 100 not in e.table.rows


# ----------------------------------------------------------- predicate read


def test_pr_first_match():
    e = make_engine()
    e.begin(1, IL.RC)
    rows = e.predicate_read(1, "P", PRED_K, ("recval",), 1)
    assert rows == [(200, 20000)]
    assert "P" in e.txns[1].cursors


def test_pr_count_below_first_key():
    e = make_engine()
    e.begin(1, IL.RC)
    rows = e.predicate_read(1, "P", parse_predicate("reckey<100"), None, 1, aggregate="count")
    assert rows == [(0,)]


def test_pr_cursor_positions_across_calls():
    e = make_engine()
    e.begin(1, IL.RC)
    first = e.predicate_read(1, "P", PRED_K, ("recval",), 2)
    second = e.predicate_read(1, "P", PRED_K, ("recval",), 1)
    assert [r[0] for r in first] == [200, 400]
    assert [r[0] for r in second] == [800]  # 600 has k3=2, filtered out
    assert e.txns[1].cursors["P"].position == 800


def test_pr_all_closes_and_frees():
    e = make_engine()
    e.begin(1, IL.RC)
    for i in range(9):  # one more drain than the cursor limit: each frees its cursor
        e.predicate_read(1, f"P{i}", PRED_K, ("reckey",), "all")
    assert e.txns[1].cursors == {}


def test_pr_numbered_cursor_never_freed_even_exhausted():
    e = make_engine(rows=100)
    e.begin(1, IL.RC)
    pred = parse_predicate("reckey<=200")
    rows = e.predicate_read(1, "P", pred, ("reckey",), 50)
    assert len(rows) == 2
    rows = e.predicate_read(1, "P", pred, ("reckey",), 5)
    assert rows == []
    assert "P" in e.txns[1].cursors


def test_incremental_count_waits_for_insert_then_locks_whole_range():
    e = make_engine(scope=LockScope.INCREMENTAL_RANGE)
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    e.insert_item(2, 150, {})
    counter = OpThread(e.predicate_read, 1, "P", parse_predicate("k2=0"), None, 1,
                       aggregate="count")
    assert e.request_state(1) == "WAITING"
    e.rollback(2)
    rows = counter.outcome()
    assert rows == [(100,)] and "P" not in e.txns[1].cursors  # a count stores no cursor
    whole = RangeResource(0.0, float("inf"))
    assert [(g.resource, g.mode, g.duration) for g in held_locks(e, 1)] == [(whole, S, LONG)]
    assert lock_trace(e) == [
        ("ACQUIRE", 2, ItemResource(150), X, LONG, ""),
        ("RELEASE", 2, ItemResource(150), X, LONG, "TERMINATION"),
        ("ACQUIRE", 1, whole, S, LONG, ""),
    ]


def test_pr_rejects_an_unknown_column_before_locking():
    e = make_engine()
    e.begin(1, IL.RC)
    with pytest.raises(UnknownColumn):
        e.predicate_read(1, "P", PRED_K, ("recval", "k7"), 1)
    assert e.lock_events == [] and e.txns[1].cursors == {}


def test_cursor_pool_limit():
    e = make_engine()
    e.begin(1, IL.RC)
    for i in range(8):
        e.predicate_read(1, f"P{i}", parse_predicate(f"reckey={100 * (i + 1)}"), ("reckey",), 1)
    with pytest.raises(CursorLimitExceeded):
        e.predicate_read(1, "P9", parse_predicate("reckey=900"), ("reckey",), 1)


def test_incremental_scan_blocks_only_inside_frontier():
    # hand-simulated lock table: after one fetch the locked range is
    # (0, 100]; a write at 700 (beyond the frontier) proceeds, the drain
    # then blocks on it until the writer resolves
    e = make_engine(scope=LockScope.INCREMENTAL_RANGE)
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    pred = parse_predicate("k2=0 and k3=0")
    rows = e.predicate_read(1, "P", pred, ("recval",), 1)
    assert rows == [(100, 10000)]
    e.write_item(2, 700, {"recval": 777})  # beyond the scan frontier: no block
    drain = OpThread(e.predicate_read, 1, "P", pred, ("recval",), "all")
    assert e.request_state(1) == "WAITING"
    assert drain.still_blocked()
    e.commit(2)
    rows = drain.outcome()
    assert rows[0] == (700, 777) and "P" not in e.txns[1].cursors


def test_incremental_write_inside_frontier_blocks():
    e = make_engine(scope=LockScope.INCREMENTAL_RANGE)
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    pred = parse_predicate("k2=0 and k3=0")
    e.predicate_read(1, "P", pred, ("recval",), 2)  # frontier now at 700
    writer = OpThread(e.write_item, 2, 400, {"recval": 9})  # 400 inside (100, 700]
    assert e.request_state(2) == "WAITING"
    assert writer.still_blocked()
    e.commit(1)
    writer.outcome()


@pytest.mark.parametrize("row_limit", ["all", 2])
@pytest.mark.parametrize("t2_commits", [True, False])
def test_incremental_fetch_waiting_on_an_insert_reads_its_outcome(row_limit, t2_commits):
    # the fetch waits for (100, 150], then walks again from its cursor at 100
    e = make_engine(scope=LockScope.INCREMENTAL_RANGE)
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    e.insert_item(2, 150, {})  # k2=0 and k3=0, between the matches 100 and 700
    reader = OpThread(e.predicate_read, 1, "P", parse_predicate("k2=0 and k3=0"),
                      ("reckey",), row_limit)
    assert e.request_state(1) == "WAITING"
    assert reader.still_blocked()
    if t2_commits:
        e.commit(2)
    else:
        e.rollback(2)
    keys = [row[0] for row in reader.outcome()]
    expected = [100, 150] if t2_commits else [100]
    expected += range(700, 20000, 600)
    assert keys == (expected if row_limit == "all" else expected[:2])


def test_incremental_without_index_locks_everything():
    e = make_engine(scope=LockScope.TABLE)
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    e.predicate_read(1, "P", parse_predicate("k2=0 and k3=0"), ("recval",), 1)
    writer = OpThread(e.write_item, 2, 19900, {"recval": 1})  # far beyond any frontier
    assert e.request_state(2) == "WAITING"
    assert writer.still_blocked()
    e.commit(1)
    writer.outcome()


# ----------------------------------------------------------- set operations


def test_set_update_single_row():
    e = make_engine()
    e.begin(1, IL.RC)
    count, images = e.set_update(1, parse_predicate("reckey=100"), 5)
    assert count == 1
    assert e.table.rows[100].values["recval"] == 10005


def test_set_update_half_the_table():
    e = make_engine()
    e.begin(1, IL.RC)
    count, images = e.set_update(1, parse_predicate("k2=0"), 1)
    assert count == 100
    assert len(images) == 100


def test_set_update_blocked_by_read_lock_on_match():
    e = make_engine()
    e.begin(1, IL.RR)
    e.begin(2, IL.RC)
    e.read_item(1, 300)  # long S at RR; row 300 matches k2=0
    updater = OpThread(e.set_update, 2, parse_predicate("k2=0"), 1)
    assert e.request_state(2) == "WAITING"
    assert updater.still_blocked()
    e.commit(1)
    assert updater.outcome()[0] == 100


def test_set_update_skips_row_that_leaves_predicate_while_waiting():
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    pred = parse_predicate("recval<25000")  # rows 100 and 200
    e.write_item(1, 100, {"recval": 15000})  # still inside the predicate
    updater = OpThread(e.set_update, 2, pred, 1)
    assert e.request_state(2) == "WAITING"
    e.write_item(1, 100, {"recval": 99999})  # now outside it
    e.commit(1)
    count, images = updater.outcome()
    assert count == 1 and [img.reckey for img in images] == [200]
    assert [img.reckey for img in e.txns[2].undo] == [200]
    assert e.table.rows[100].values["recval"] == 99999
    assert e.table.rows[200].values["recval"] == 20001
    assert lock_trace(e) == [
        ("ACQUIRE", 1, ItemResource(100), X, LONG, ""),
        ("RELEASE", 1, ItemResource(100), X, LONG, "TERMINATION"),
        ("ACQUIRE", 2, ItemResource(100), X, LONG, ""),
        ("ACQUIRE", 2, ItemResource(200), X, LONG, ""),
    ]


def test_set_update_queues_behind_a_waiting_writer_of_its_row():
    # T2's write of row 300 waits for T1's predicate lock (its new value would
    # match Q).  T3's set update could be granted row 300 against the grants
    # alone, but T2 asked first: T3 queues behind it and writes after it.
    e = make_engine()
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    e.begin(3, IL.RC)
    assert e.predicate_read(1, "Q", parse_predicate("recval=5"), ("recval",), "all") == []
    writer = OpThread(e.write_item, 2, 300, {"recval": 5})
    assert writer.still_blocked()
    updater = OpThread(e.set_update, 3, parse_predicate("reckey<=300"), 1)
    assert updater.still_blocked() and updater.lock.resource == ItemResource(300)
    assert [img.reckey for img in e.txns[3].undo] == [100, 200]
    e.commit(1)
    assert writer.done() and updater.still_blocked()
    e.commit(2)
    assert updater.outcome()[0] == 3
    assert e.table.rows[300].values["recval"] == 6
    assert [(ev.action, ev.txn) for ev in e.lock_events if ev.resource == ItemResource(300)] == [
        ("ACQUIRE", 2), ("RELEASE", 2), ("ACQUIRE", 3)]


def test_set_update_queues_behind_a_waiting_predicate_read():
    # T2's predicate lock waits for T1's exclusive lock on row 100, which is
    # in P.  Nothing is granted on row 400, but the waiting lock covers it:
    # T3's set update queues behind T2 instead of overtaking it.
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.SR)
    e.begin(3, IL.RC)
    e.write_item(1, 100, None)
    reader = OpThread(e.predicate_read, 2, "P", parse_predicate("k3=0"), ("recval",), "all")
    assert reader.still_blocked()
    updater = OpThread(e.set_update, 3, parse_predicate("reckey=400"), 1)
    assert updater.still_blocked() and updater.lock.resource == ItemResource(400)
    e.commit(1)
    assert reader.outcome()[:2] == [(100, 10001), (400, 40000)]
    assert updater.still_blocked()  # now behind T2's LONG predicate lock
    e.commit(2)
    assert updater.outcome()[0] == 1


def test_set_update_reuses_the_exclusive_lock_of_an_earlier_write():
    e = make_engine()
    e.begin(1, IL.RC)
    e.write_item(1, 200, None)
    count, images = e.set_update(1, parse_predicate("reckey<=300"), 1)
    assert count == 3 and e.table.rows[200].values["recval"] == 20002
    assert lock_trace(e) == [("ACQUIRE", 1, ItemResource(key), X, LONG, "") for key in (200, 100, 300)]
    assert [img.reckey for img in e.txns[1].undo] == [200, 100, 200, 300]


def test_set_update_over_long_range_locks_parks_on_its_first_row():
    # T1's SR drain leaves LONG range locks over every key; T2's set update
    # parks on its first row and writes every row once T1 ends.
    e = make_engine(200, LockScope.INCREMENTAL_RANGE)
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    assert e.predicate_read(1, "P", parse_predicate("reckey<=300"), ("reckey",), "all") == [
        (100,), (200,), (300,)]
    updater = OpThread(e.set_update, 2, parse_predicate("k3=0"), 1)
    assert updater.still_blocked() and updater.lock.resource == ItemResource(100)
    assert e.txns[2].undo == []
    e.commit(1)
    count, images = updater.outcome()
    rows = [100 * i for i in range(1, 201, 3)]
    assert count == 67 and [img.reckey for img in images] == rows
    ranges = [RangeResource(0, 100), RangeResource(100, 200), RangeResource(200, 300),
              RangeResource(300, math.inf)]
    # Events 8-12 stamp T1's fetch, T2's start and park, and T1's commit;
    # after each ACQUIRE of T2 comes a stamp (settled, then each write).
    assert [(ev.seq, ev.txn, ev.action, ev.resource, ev.mode, ev.duration, ev.reason)
            for ev in e.lock_events] == (
        [(4 + i, 1, "ACQUIRE", r, S, LONG, "") for i, r in enumerate(ranges)]
        + [(13 + i, 1, "RELEASE", r, S, LONG, "TERMINATION") for i, r in enumerate(ranges)]
        + [(17, 2, "ACQUIRE", ItemResource(100), X, LONG, "")]
        + [(20 + 2 * i, 2, "ACQUIRE", ItemResource(key), X, LONG, "") for i, key in enumerate(rows[1:])]
    )


def test_set_update_makes_one_test_call_per_visited_row(monkeypatch):
    # A row granted at once costs one call of the predicate's test (the walk)
    # and one ACQUIRE, and enters no parking generator; only a request that
    # queues parks, and only then is its row tested again.
    parks = 0
    park = Engine._park

    def counted_park(self, st, req):
        nonlocal parks
        parks += 1
        return park(self, st, req)

    monkeypatch.setattr(Engine, "_park", counted_park)
    for wait in (False, True):
        pred = parse_predicate("k3=0")  # 200 of the 600 rows
        calls = 0
        test = pred.test

        def counted(values):
            nonlocal calls
            calls += 1
            return test(values)

        object.__setattr__(pred, "test", counted)  # this object's test only
        parks = 0
        e = make_engine(600, LockScope.INCREMENTAL_RANGE)
        e.begin(1, IL.RC)
        e.begin(2, IL.RC)
        if wait:
            e.write_item(2, 700, None)
            updater = OpThread(e.set_update, 1, pred, 1)
            assert updater.still_blocked()
            e.write_item(2, 1000, {"k3": 1})  # changes the table during the wait
            e.commit(2)
            count, images = updater.outcome()
        else:
            count, images = e.set_update(1, pred, 1)
        assert count == 200 - wait
        assert calls == 600 + wait and parks == wait
        acquired = [ev.resource.reckey for ev in e.lock_events if ev.txn == 1]
        assert acquired == [img.reckey for img in images]


def test_set_select_sum():
    e = make_engine()
    e.begin(1, IL.RC)
    assert e.set_select(1, parse_predicate("reckey<=200"), "sum") == 30000


def test_set_select_count_full_table():
    e = make_engine()
    e.begin(1, IL.RC)
    assert e.set_select(1, parse_predicate("reckey>0"), "count") == 200


def test_set_select_at_sr_leaves_long_predicate_lock():
    e = make_engine()
    e.begin(1, IL.SR)
    e.begin(2, IL.RC)
    e.set_select(1, parse_predicate("k2=0"), "count")
    inserter = OpThread(e.insert_item, 2, None, {"k2": 0})
    assert e.request_state(2) == "WAITING"
    assert inserter.still_blocked()
    e.commit(1)
    inserter.outcome()


@pytest.mark.parametrize("scope", [LockScope.INCREMENTAL_RANGE, LockScope.TABLE])
@pytest.mark.parametrize("level, duration, reason", [
    (IL.RC, LockDuration.SHORT, "OP_END"),
    (IL.SR, LONG, "TERMINATION"),
])
def test_set_select_outside_predicate_scope_locks_the_whole_key_range(scope, level, duration, reason):
    e = make_engine(scope=scope)
    e.begin(1, level)
    assert e.set_select(1, parse_predicate("k2=0"), "count") == 100
    e.commit(1)
    whole = RangeResource(0.0, math.inf)
    assert lock_trace(e) == [
        ("ACQUIRE", 1, whole, S, duration, ""),
        ("RELEASE", 1, whole, S, duration, reason),
    ]


@pytest.mark.parametrize("scope", list(LockScope))
@pytest.mark.parametrize("level", [IL.RC, IL.RR, IL.SR])
def test_set_select_reads_like_a_count_drain(scope, level):
    # SS(P, count(*)) and PR(P;count(*);all): the same value, the same locks
    pred = parse_predicate("k2=0")
    events = []
    for read in (lambda e: e.set_select(1, pred, "count"),
                 lambda e: e.predicate_read(1, "P", pred, None, "all", "count")[0][0]):
        e = make_engine(scope=scope)
        e.begin(1, level)
        assert read(e) == 100
        e.commit(1)
        events.append(e.lock_events)
    assert events[0] == events[1]
    lock = PredicateResource(pred) if scope is LockScope.PREDICATE else RangeResource(0.0, math.inf)
    duration = LONG if level is IL.SR else LockDuration.SHORT
    assert lock_trace(e) == [
        ("ACQUIRE", 1, lock, S, duration, ""),
        ("RELEASE", 1, lock, S, duration, "TERMINATION" if level is IL.SR else "OP_END"),
    ]


# ---------------------------------------------------------- commit/rollback


def test_commit_publishes_value():
    e = make_engine()
    e.begin(1, IL.RC)
    e.write_item(1, 100, {"recval": 1001})
    e.commit(1)
    e.begin(2, IL.RC)
    assert e.read_item(2, 100) == 1001


def test_rollback_restores_original():
    e = make_engine()
    e.begin(1, IL.RC)
    e.write_item(1, 100, {"recval": 1001})
    e.rollback(1)
    e.begin(2, IL.RC)
    assert e.read_item(2, 100) == 10000


def test_terminated_txns_hold_no_locks():
    e = make_engine()
    e.begin(1, IL.SR)
    e.read_item(1, 100)
    e.write_item(1, 200, None)
    e.commit(1)
    assert held_locks(e, 1) == []
    e.begin(2, IL.SR)
    e.write_item(2, 300, None)
    e.rollback(2)
    assert held_locks(e, 2) == []


@pytest.mark.parametrize("end", ["commit", "rollback"])
def test_a_transaction_with_a_parked_operation_cannot_end(end):
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.write_item(2, 100, {"recval": 1001})
    reader = OpThread(e.read_item, 1, 100)
    with pytest.raises(UnknownTxn, match="has a pending operation"):
        getattr(e, end)(1)
    assert e.txns[1].status is TxnStatus.BLOCKED and e.request_state(1) == "WAITING"
    e.commit(2)
    assert reader.outcome() == 1001


def test_commit_unknown_txn():
    e = make_engine()
    with pytest.raises(UnknownTxn):
        e.commit(7)


def test_fifo_grant_order_preserved():
    # X waits first, S arrives later on the same key: the S must not overtake
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.begin(3, IL.RR)
    e.write_item(1, 100, {"recval": 1})
    writer = OpThread(e.write_item, 2, 100, {"recval": 2})
    assert e.request_state(2) == "WAITING"
    reader = OpThread(e.read_item, 3, 100)
    assert e.request_state(3) == "WAITING"
    e.commit(1)
    assert writer.done()
    assert reader.still_blocked()  # behind txn 2's exclusive lock
    e.commit(2)
    assert reader.outcome() == 2


def test_undo_exactness_across_mixed_ops():
    e = make_engine()
    snapshot = live_rows(e.table)
    e.begin(1, IL.RC)
    e.write_item(1, 100, {"recval": 42})
    e.rw_item(1, 300)
    e.delete_item(1, 500)
    e.insert_item(1, None, {"k2": 1})
    e.set_update(1, parse_predicate("k3=2"), 7)
    e.rollback(1)
    assert live_rows(e.table) == snapshot


# ----------------------------------------------------------------- deadlock


def test_two_txn_deadlock_aborts_younger():
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.write_item(1, 100, {"recval": 1})
    e.write_item(2, 200, {"recval": 2})
    t1 = OpThread(e.write_item, 1, 200, {"recval": 3})
    assert e.request_state(1) == "WAITING"
    t2 = OpThread(e.write_item, 2, 100, {"recval": 4})
    with pytest.raises(DeadlockAbort):
        t2.outcome()
    t1.outcome()  # unblocked by the victim's rollback
    assert e.txns[2].status is TxnStatus.ABORTED
    e.commit(1)
    assert e.table.rows[200].values["recval"] == 3


def test_no_cycle_no_victim():
    e = make_engine()
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.write_item(1, 100, None)
    blocked = OpThread(e.write_item, 2, 100, None)
    assert e.request_state(2) == "WAITING"
    assert blocked.still_blocked()  # parked, not picked as a victim
    assert e.txns[2].status is TxnStatus.BLOCKED
    e.commit(1)
    blocked.outcome()


def test_three_txn_cycle_single_victim():
    e = make_engine()
    for txn in (1, 2, 3):
        e.begin(txn, IL.RC)
        e.write_item(txn, 100 * txn, {"recval": txn})
    t1 = OpThread(e.write_item, 1, 200, {"recval": 9})
    assert e.request_state(1) == "WAITING"
    t2 = OpThread(e.write_item, 2, 300, {"recval": 9})
    assert e.request_state(2) == "WAITING"
    t3 = OpThread(e.write_item, 3, 100, {"recval": 9})
    with pytest.raises(DeadlockAbort):
        t3.outcome()  # youngest in the cycle
    t2.outcome()  # freed by the victim's rollback
    e.commit(2)
    t1.outcome()
    e.commit(1)
    statuses = {t: e.txns[t].status for t in (1, 2, 3)}
    assert statuses[3] is TxnStatus.ABORTED
    assert statuses[1] is TxnStatus.COMMITTED and statuses[2] is TxnStatus.COMMITTED


def test_every_write_path_leaves_later_tables_canonical():
    # Every table shares the canonical rows, so a write puts a new row and
    # never edits one: after each write path, a commit, a rollback and a
    # deadlock victim's rollback, a new table is canonical, and every image
    # the engine logged still holds the values it was logged with.
    e = make_engine(300)
    logged = []

    def log(image):
        sides = (image.before, image.after)
        logged.append((image, [r and (dict(r.values), r.tombstone) for r in sides]))

    e.begin(1, IL.RC)
    log(e.write_item(1, 100, {"recval": 1}))
    log(e.rw_item(1, 200)[1])
    log(e.delete_item(1, 300))
    key, image = e.insert_item(1, None, {"k2": 1})
    assert key == 150  # a fresh key
    log(image)
    log(e.insert_item(1, 300)[1])  # over its own tombstone; matches below
    count, images = e.set_update(1, parse_predicate("k2=0 and k3=0"), 5)
    assert count == 51 and 300 in [image.reckey for image in images]
    for image in images:
        log(image)
    e.commit(1)

    e.begin(2, IL.RC)
    log(e.write_item(2, 400, {"recval": 2}))
    log(e.delete_item(2, 500))
    log(e.insert_item(2, 550)[1])
    e.rollback(2)

    e.begin(3, IL.RC)
    e.begin(4, IL.RC)
    log(e.write_item(3, 600, {"recval": 3}))
    log(e.write_item(4, 700, {"recval": 4}))
    log(e.delete_item(4, 800))
    waiter = OpThread(e.write_item, 3, 700, {"recval": 5})
    with pytest.raises(DeadlockAbort):
        OpThread(e.write_item, 4, 600, {"recval": 6}).outcome()
    log(waiter.outcome())
    e.commit(3)

    canonical = table_rows_oracle(300)
    assert [e.table.rows[k].values["recval"] for k in (100, 200, 300, 700)] == [6, 20001, 30005, 5]
    assert [e.table.rows[k].values for k in (400, 500, 800)] == [canonical[i] for i in (3, 4, 7)]
    assert 550 not in e.table.rows and e.txns[4].status is TxnStatus.ABORTED
    fresh = build_canonical_table(300)
    assert [r.values for r in fresh.scan()] == canonical
    assert fresh.keys == [100 * i for i in range(1, 301)]
    for image, sides in logged:
        assert [r and (r.values, r.tombstone) for r in (image.before, image.after)] == sides


# ------------------------------------------------- sorted keys and scan cost


def test_sorted_keys_follow_every_insert_and_delete():
    e = make_engine()
    table = e.table

    def in_order():
        return table.keys == sorted(table.rows)

    e.begin(1, IL.RC)
    assert e.insert_item(1, None, {})[0] == 150  # reserved, then made visible
    assert in_order()
    e.delete_item(1, 200)
    e.insert_item(1, 200, {})  # over its own tombstone
    assert in_order()
    e.delete_item(1, 300)
    e.commit(1)
    assert 300 not in table.rows and 200 in table.rows and in_order()

    e.begin(2, IL.RC)
    e.insert_item(2, 250, {})
    e.delete_item(2, 400)
    e.insert_item(2, 400, {})
    e.rollback(2)
    assert 250 not in table.rows and not table.rows[400].tombstone and in_order()

    e.begin(3, IL.RC)
    e.begin(4, IL.RC)
    e.delete_item(3, 500)
    inserter = OpThread(e.insert_item, 4, 500, {})  # over another's tombstone
    assert e.request_state(4) == "WAITING"
    e.commit(3)  # drops the row, then the insert puts it back
    inserter.outcome()
    assert not table.rows[500].tombstone and in_order()
    e.rollback(4)
    assert 500 not in table.rows and in_order()


def _lines_run_in(code, fn) -> int:
    """Lines executed in frames of ``code`` while ``fn()`` runs: a count of
    the work a loop does that no clock or machine load affects."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return lines


def _counting(pred) -> list:
    """Make ``pred``'s compiled test count its calls, in the one-item list
    returned: the rows it examined."""
    test, calls = pred.test, [0]

    def counted(values):
        calls[0] += 1
        return test(values)

    object.__setattr__(pred, "test", counted)  # this object's test only
    return calls


def _drain(e) -> int:
    """Drain ``k2=0 and k3=0`` in transaction 1; returns the rows examined,
    counted as calls of the predicate's compiled test."""
    pred = parse_predicate("k2=0 and k3=0")
    examined = _counting(pred)
    e.predicate_read(1, "P", pred, ("reckey",), "all")
    return examined[0]


@pytest.mark.parametrize("scope", [LockScope.PREDICATE, LockScope.INCREMENTAL_RANGE])
def test_drain_visits_grow_linearly_with_table(scope):
    steps = {}
    for rows in (200, 2000):
        e = make_engine(rows, scope)
        e.begin(1, IL.RC)
        steps[rows] = _drain(e)
    assert steps[200] > 0
    assert steps[2000] <= 12 * steps[200], steps  # quadratic would be ~100


@pytest.mark.parametrize("scope", [LockScope.INCREMENTAL_RANGE, LockScope.TABLE])
def test_drain_with_no_waits_examines_each_live_row_once(scope):
    # Every range lock is granted at once, so the table never changes under
    # the walk and it goes on where it stopped instead of walking again.
    e = make_engine(2000, scope)
    e.begin(1, IL.RC)
    e.delete_item(1, 700)  # its own tombstone is not a live row
    assert _drain(e) == 1999


@pytest.mark.parametrize("changed", [700, 150])
def test_range_wait_that_changes_the_table_walks_again(changed):
    # T1's drain waits for the range up to T2's uncommitted insert of 150.
    # Meanwhile T2 takes a row out of the predicate: a later match (700) or
    # the row the walk stopped on (150).  The table changed during the wait,
    # so the resumed fetch walks again from its cursor and leaves it out.
    pred = parse_predicate("k2=0 and k3=0")
    e = make_engine(2000, LockScope.INCREMENTAL_RANGE)
    e.begin(1, IL.RC)
    e.begin(2, IL.RC)
    e.insert_item(2, 150)
    drain = OpThread(e.predicate_read, 1, "P", pred, ("reckey",), "all")
    assert drain.still_blocked()
    e.write_item(2, changed, {"k2": 1})
    e.commit(2)
    expected = sorted(({150} | {100 * (i + 1) for i in range(0, 2000, 6)}) - {changed})
    assert [key for key, in drain.outcome()] == expected


@pytest.mark.parametrize("scope", list(LockScope))
def test_reads_of_one_expression_walk_the_table_once(scope):
    # A drain, a cursor paged twice and drained, count(*) and SS over one
    # expression: the first drain walks all 2 000 rows and is kept, and the
    # table does not change, so every later read takes its keys from it.
    pred = parse_predicate("k2=0 and k3=0")
    calls = _counting(pred)
    e = make_engine(2000, scope)
    e.begin(1, IL.RC)
    keys = [100 * (i + 1) for i in range(0, 2000, 6)]
    assert e.predicate_read(1, "P1", pred, ("reckey",), "all") == [(key,) for key in keys]
    pages = [e.predicate_read(1, "P2", pred, ("recval",), limit) for limit in (100, 100, "all")]
    assert [len(page) for page in pages] == [100, 100, len(keys) - 200]
    assert [row for page in pages for row in page] == [(key, 100 * key) for key in keys]
    assert e.predicate_read(1, "P3", pred, None, "all", "count") == [(len(keys),)]
    assert e.set_select(1, pred, "sum") == 100 * sum(keys)
    assert calls[0] == 2000


def _in_p(values) -> bool:
    """``k2=0 and k3=0``, evaluated without the compiled predicate."""
    return values["k2"] == 0 and values["k3"] == 0


@pytest.mark.parametrize("before, change", [
    ([], lambda e: e.insert_item(2, 150, {"k2": 0, "k3": 0})),  # an uncommitted insert into P
    ([], lambda e: e.delete_item(2, 700)),  # its tombstone must not match
    ([], lambda e: e.write_item(2, 700, {"k2": 1})),  # moves 700 out of P
    ([lambda e: e.write_item(2, 700, {"k2": 1})], lambda e: e.rollback(2)),  # puts 700 back
    ([lambda e: e.delete_item(2, 700)], lambda e: e.commit(2)),  # drops 700's tombstone
], ids=["insert", "delete", "move_out", "rollback", "commit_drops"])
def test_a_change_between_two_reads_makes_the_second_walk_again(before, change):
    # T1 reads at RU, so it takes no locks and reads T2's changes at once.
    pred = parse_predicate("k2=0 and k3=0")
    e = make_engine(200)
    e.begin(1, IL.RU)
    e.begin(2, IL.RC)
    for step in before:
        step(e)
    calls = _counting(pred)
    e.predicate_read(1, "P", pred, ("recval",), "all")
    change(e)
    walked = calls[0]
    second = e.predicate_read(1, "P", pred, ("recval",), "all")
    live = live_rows(e.table)
    assert calls[0] - walked == len(live)  # every live row tested again, no tombstone
    assert second == [(key, values["recval"]) for key, values in sorted(live.items()) if _in_p(values)]
    assert e.predicate_read(1, "P", pred, ("recval",), "all") == second
    assert calls[0] - walked == len(live)  # and kept: the third read tested nothing


def test_a_fetch_that_stops_early_or_starts_late_keeps_no_walk():
    # A paged fetch stops before the end of the key list, and a fetch that
    # resumes from its cursor starts after the first key: neither is kept,
    # so the count after them walks every row, and the count after that none.
    pred = parse_predicate("k2=0 and k3=0")
    calls = _counting(pred)
    e = make_engine(2000)
    e.begin(1, IL.RC)
    examined = []
    for read in (lambda: e.predicate_read(1, "P", pred, ("reckey",), 100),
                 lambda: e.predicate_read(1, "P", pred, ("reckey",), "all"),
                 lambda: e.set_select(1, pred, "count"),
                 lambda: e.set_select(1, pred, "count")):
        before = calls[0]
        read()
        examined.append(calls[0] - before)
    assert examined == [595, 1405, 2000, 0]


#: T2's changes: W moving a live row into or out of ``k2=0``, I, D, and the
#: end of T2 by commit or rollback, after which a new T2 begins.  An index
#: picks a row among the live ones.
_CHANGES = st.one_of(
    st.tuples(st.just("W"), st.integers(0, 999), st.integers(0, 1)),
    st.tuples(st.just("I"), st.integers(0, 1)),
    st.tuples(st.just("D"), st.integers(0, 999)),
    st.tuples(st.sampled_from(["C", "A"])),
)
#: T1's fetches: a page or a drain of one of two cursors, count(*), SS.
_FETCHES = st.one_of(
    st.tuples(st.just("PR"), st.sampled_from(["P1", "P2"]), st.sampled_from([1, 3, 7, "all"])),
    st.tuples(st.sampled_from(["count", "SS"])),
)


@pytest.mark.parametrize("scope", list(LockScope))
@seed(1)
@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.one_of(_CHANGES, _FETCHES, _FETCHES), max_size=30))
def test_kept_walks_read_what_a_filter_of_the_live_rows_reads(scope, steps):
    # PRED variables with one expression share one compiled test, so one
    # kept walk; every fetch must still read the live rows above its cursor.
    e = make_engine(200, scope)
    preds = {var: parse_predicate("k2=0") for var in ("P1", "P2", "P3")}
    e.begin(1, IL.RU)
    writer = 2
    e.begin(writer, IL.RC)
    cursors = {}
    for step in steps:
        live = live_rows(e.table)
        keys = sorted(live)
        kind = step[0]
        if kind == "W":
            e.write_item(writer, keys[step[1] % len(keys)], {"k2": step[2]})
        elif kind == "I":
            e.insert_item(writer, None, {"k2": step[1]})
        elif kind == "D" and len(keys) > 1:
            e.delete_item(writer, keys[step[1] % len(keys)])
        elif kind in ("C", "A"):
            (e.commit if kind == "C" else e.rollback)(writer)
            writer += 1
            e.begin(writer, IL.RC)
        elif kind == "PR":
            var, limit = step[1], step[2]
            above = [(k, live[k]["recval"]) for k in keys
                     if k > cursors.get(var, 0) and live[k]["k2"] == 0]
            rows = e.predicate_read(1, var, preds[var], ("recval",), limit)
            assert rows == (above if limit == "all" else above[:limit])
            if limit == "all":
                cursors.pop(var, None)
            elif rows:
                cursors[var] = rows[-1][0]
        elif kind == "count":
            assert e.predicate_read(1, "P3", preds["P3"], None, "all", "count") == [
                (sum(live[k]["k2"] == 0 for k in keys),)]
        elif kind == "SS":
            assert e.set_select(1, preds["P3"], "sum") == sum(
                live[k]["recval"] for k in keys if live[k]["k2"] == 0)


def test_incremental_drain_conflict_checks_grow_linearly(monkeypatch):
    calls = 0
    conflict = Engine._conflict

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return conflict(self, a, b)

    monkeypatch.setattr(Engine, "_conflict", counted)
    checks = {}
    for rows in (200, 2000):
        e = make_engine(rows, LockScope.INCREMENTAL_RANGE)
        e.begin(1, IL.RC)
        e.write_item(1, 100, None)  # one exclusive grant for each range request to meet
        calls = 0
        _drain(e)
        checks[rows] = calls
    assert checks[200] > 0
    assert checks[2000] <= 12 * checks[200], checks  # quadratic would be ~100


def test_parked_predicate_read_checks_one_grant_per_blocker(monkeypatch):
    # Once T1 blocks T2's predicate lock, T1's other exclusive grants need
    # no membership check, neither at the request nor in the deadlock check.
    calls = 0
    images_of = Engine._images_of

    def counted(self, entry):
        nonlocal calls
        calls += 1
        return images_of(self, entry)

    monkeypatch.setattr(Engine, "_images_of", counted)
    checks = {}
    for rows in (200, 2000):
        calls = 0
        oh, _ = run_text("PRED(P, recval>0) PRED(Q, k2=0) IL1(RC) IL2(RC) SU1(P, 1)"
                         " PR2(Q;reckey;all) C1 C2", rows=rows)
        assert any(rec.op_text.startswith("PR2") and rec.status == "BLOCKED" for rec in oh.records)
        checks[rows] = calls
    assert checks[200] == checks[2000] <= 4, checks


def test_predicate_conflict_checks_grow_linearly_with_undo_log():
    # T2's predicate lock request meets one exclusive grant per row; each
    # check must look up that row's undo images, not scan the whole log.
    lines = {}
    for rows in (200, 2000):
        e = make_engine(rows)
        e.begin(1, IL.RC)
        e.begin(2, IL.RC)
        e.set_update(1, parse_predicate("recval>0"), 1)

        def read():
            reader = OpThread(e.predicate_read, 2, "Q", parse_predicate("k2=0"), ("reckey",), "all")
            assert e.request_state(2) == "WAITING"
            e.commit(1)
            reader.outcome()

        lines[rows] = _lines_run_in(Engine._images_of.__code__, read)
        e.commit(2)
    assert lines[200] > 0
    assert lines[2000] <= 12 * lines[200], lines  # a scan of the log would be ~100
