import pytest
from hypothesis import given, strategies as st

from isoharness.dataset import (
    InvalidRowCount,
    Row,
    build_canonical_table,
    dump_tsv,
    eval_predicate,
    initial_row,
)
from isoharness.engine import Engine, EngineConfig
from isoharness.notation import SCHEMA_COLUMNS, And, Comparison, IsolationLevel, Or, parse_predicate

from conftest import copy_row, finish
from oracles import eval_pred_oracle, match_count_oracle, table_rows_oracle


def test_first_row_matches_published_defaults():
    table = build_canonical_table(200)
    row = table.rows[100]
    assert row.values["recval"] == 10000
    assert row.values["k2"] == 0
    assert row.values["k3"] == 0
    assert row.values["k100"] == 0


def test_fourth_row():
    table = build_canonical_table(200)
    row = table.rows[400]
    assert row.values["recval"] == 40000
    assert row.values["k2"] == 1
    assert row.values["k3"] == 0
    assert row.values["c100"] == 3


def test_row_100_of_small_table():
    # frozen from the (i-1) mod N formulas applied directly
    table = build_canonical_table(100)
    row = table.rows[10000]
    assert row.values["recval"] == 1000000
    assert row.values["k2"] == 1
    assert row.values["k3"] == 0
    assert row.values["k100"] == 99


def test_whole_table_against_oracle():
    table = build_canonical_table(200)
    expected = table_rows_oracle(200)
    assert len(table.rows) == 200
    for want in expected:
        assert table.rows[want["reckey"]].values == want


def test_invalid_row_counts():
    for bad in (0, -100, 150, 99):
        with pytest.raises(InvalidRowCount):
            build_canonical_table(bad)


def test_determinism():
    # Tables share the canonical rows but own their row dict and key list,
    # so a put or a drop on one leaves the other canonical.
    a = build_canonical_table(300)
    b = build_canonical_table(300)
    assert a.rows == b.rows and [r.values for r in a.scan()] == table_rows_oracle(300)
    assert a.keys == b.keys == sorted(a.rows)
    assert a.rows is not b.rows and a.keys is not b.keys
    edited = copy_row(a.rows[100])
    edited.values["recval"] = -1
    a.put(100, edited)
    a.put(150, Row(dict(edited.values, reckey=150)))
    a.drop(200)
    assert a.keys[:3] == [100, 150, 300] and a.rows[100].values["recval"] == -1
    assert b.keys == [100 * i for i in range(1, 301)]
    assert [r.values for r in b.scan()] == table_rows_oracle(300)


@pytest.mark.parametrize("n", [100, 300, 400, 2000])
def test_every_row_is_the_initial_row_in_schema_order(n):
    table = build_canonical_table(n)
    assert table.keys == [100 * i for i in range(1, n + 1)]
    for i in range(1, n + 1):
        row = table.rows[100 * i]
        assert row == initial_row(i)
        assert tuple(row.values) == SCHEMA_COLUMNS
    oracle = table_rows_oracle(n)
    for i in (300, 301, 600):  # the last row of a 300-row period and the next
        if i <= n:
            assert table.rows[100 * i].values == oracle[i - 1]


def test_mutating_a_table_leaves_later_tables_canonical():
    # A table changes as the engine changes it: an edited copy of a row, or
    # a tombstoned one, is put in the row's place.
    table = build_canonical_table(700)
    edits = {100: {"recval": -1, "k2": 7}, 30100: {"c100": -5},  # row 301 shares row 1's period slot
             60000: {"k50": 99}}
    for key, change in edits.items():
        row = copy_row(table.rows[key])
        row.values.update(change)
        table.put(key, row)
    for key in (200, 30200):
        table.put(key, Row(table.rows[key].values, tombstone=True))
    table.drop(300)
    table.drop(60100)
    assert table.rows[30100].values["c100"] == -5 and table.rows[200].tombstone
    fresh = build_canonical_table(700)
    assert [r.values for r in fresh.scan()] == table_rows_oracle(700)
    assert fresh.keys == [100 * i for i in range(1, 701)]


def test_column_agreement():
    table = build_canonical_table(200)
    for row in table.scan():
        for n in (2, 3, 4, 5, 6, 50, 100):
            assert row.values[f"c{n}"] == row.values[f"k{n}"]


def test_eval_predicate_row2():
    table = build_canonical_table(200)
    pred = parse_predicate("k2=1 and k3<2")
    assert eval_predicate(table.rows[200], pred)


def test_empty_conjunction_vacuously_true():
    table = build_canonical_table(200)
    assert eval_predicate(table.rows[100], And(()))


def test_tombstoned_rows_never_match():
    table = build_canonical_table(200)
    pred = parse_predicate("reckey=100")
    assert eval_predicate(table.rows[100], pred)
    table.put(100, Row(table.rows[100].values, tombstone=True))
    assert not eval_predicate(table.rows[100], pred)
    assert 100 not in [row.reckey for row in table.scan()]


def test_match_count_67():
    # brute-force count confirmed by the independent oracle loop
    pred = parse_predicate("k2=1 and k3<2")
    assert match_count_oracle(pred, 200) == 67
    table = build_canonical_table(200)
    assert sum(1 for row in table.scan() if eval_predicate(row, pred)) == 67


def test_set_update_style_count():
    pred = parse_predicate("k2=0")
    assert match_count_oracle(pred, 200) == 100


def test_dump_tsv_shape():
    table = build_canonical_table(100)
    lines = dump_tsv(table).splitlines()
    assert lines[0].split("\t")[:2] == ["reckey", "recval"]
    assert len(lines) == 101
    assert lines[1].split("\t")[0] == "100"


_relops = st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])
_comparisons = st.builds(
    Comparison, st.sampled_from(SCHEMA_COLUMNS), _relops, st.integers(min_value=-2, max_value=120)
)


def _predicates(depth=3):
    """Comparisons, and And/Or of 0-4 items nested up to ``depth`` levels."""
    if depth == 0:
        return _comparisons
    items = st.lists(_predicates(depth - 1), max_size=4).map(tuple)
    return st.one_of(_comparisons, st.builds(And, items), st.builds(Or, items))


@st.composite
def _rows(draw):
    """A canonical row with some values edited, negatives included, and
    perhaps tombstoned."""
    row = initial_row(draw(st.integers(min_value=1, max_value=700)))
    edits = draw(st.dictionaries(st.sampled_from(SCHEMA_COLUMNS), st.integers(-150, 150)))
    row.values.update(edits)
    row.tombstone = draw(st.booleans())
    return row


def _rebuilt(pred):
    """An equal predicate made of new objects."""
    if isinstance(pred, Comparison):
        return Comparison(pred.column, pred.op, pred.value)
    return type(pred)(tuple(_rebuilt(item) for item in pred.items))


@given(_predicates(), st.lists(_rows(), min_size=1, max_size=5))
def test_eval_matches_oracle_on_edited_rows(pred, rows):
    for row in rows:
        want = not row.tombstone and eval_pred_oracle(pred, row.values)
        assert eval_predicate(row, pred) == want
        assert pred.holds(row.values) == eval_pred_oracle(pred, row.values)


@given(_predicates())
def test_evaluated_predicate_keeps_equality_and_hash(pred):
    twin = _rebuilt(pred)
    pred.holds(initial_row(5).values)
    assert pred == twin and hash(pred) == hash(twin)
    assert {pred: 1}[twin] == 1
    twin.holds(initial_row(6).values)
    assert pred == twin and hash(pred) == hash(twin)


def test_engine_scan_makes_one_holds_call_per_examined_row():
    # A predicate is compiled to one function: a row costs one call of the
    # whole predicate's test, and no node under it is called on its own.
    pred = parse_predicate("k2=0 and (k3=1 or (k5<2 and c100<>4))")
    calls = 0
    nested = 0
    depth = 0

    def count_tests(node):
        test = node.test

        def counted(row_values):
            nonlocal calls, nested, depth
            calls += 1
            nested += depth > 0
            depth += 1
            try:
                return test(row_values)
            finally:
                depth -= 1

        object.__setattr__(node, "test", counted)  # this object's test only
        for item in getattr(node, "items", ()):
            count_tests(item)

    count_tests(pred)
    e = Engine(build_canonical_table(600), EngineConfig())
    e.begin(1, IsolationLevel.RC)
    rows = finish(e.predicate_read(1, "P", pred, ("reckey",), "all"))
    assert calls == 600 and nested == 0
    assert len(rows) == sum(eval_pred_oracle(pred, r) for r in table_rows_oracle(600))


@given(_predicates())
def test_eval_matches_oracle(pred):
    table = build_canonical_table(100)
    for key in (100, 300, 5000, 10000):
        row = table.rows[key]
        assert eval_predicate(row, pred) == eval_pred_oracle(pred, row.values)


@given(_predicates(), _comparisons)
def test_match_set_monotonicity(pred, extra):
    table = build_canonical_table(100)
    base = {r.reckey for r in table.scan() if eval_predicate(r, pred)}
    tightened = And((pred, extra))
    narrowed = {r.reckey for r in table.scan() if eval_predicate(r, tightened)}
    assert narrowed <= base
