import pytest
from hypothesis import given, strategies as st

from isoharness.dataset import (
    InvalidRowCount,
    Row,
    build_canonical_table,
    dump_tsv,
    eval_predicate,
)
from isoharness.notation import And, Comparison, parse_predicate

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
    a = build_canonical_table(300)
    b = build_canonical_table(300)
    assert a.rows == b.rows
    assert a.keys == b.keys == sorted(a.rows)
    assert not {id(r) for r in a.rows.values()} & {id(r) for r in b.rows.values()}
    assert not {id(r.values) for r in a.rows.values()} & {id(r.values) for r in b.rows.values()}


def test_mutating_a_table_leaves_later_tables_canonical():
    table = build_canonical_table(200)
    table.rows[100].values["recval"] = -1
    table.rows[200].tombstone = True
    table.drop(300)
    fresh = build_canonical_table(200)
    assert [r.values for r in fresh.scan()] == table_rows_oracle(200)
    assert fresh.keys == [100 * i for i in range(1, 201)]


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
    row = table.rows[100]
    row.tombstone = True
    assert not eval_predicate(row, parse_predicate("reckey=100"))


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


_columns = st.sampled_from(["reckey", "recval", "k2", "k3", "k4", "k5", "k6", "k50", "k100", "c2", "c6"])
_relops = st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])


@st.composite
def _comparisons(draw):
    return Comparison(draw(_columns), draw(_relops), draw(st.integers(min_value=-2, max_value=120)))


@st.composite
def _predicates(draw):
    from isoharness.notation import Or

    kind = draw(st.sampled_from(["cmp", "and", "or"]))
    if kind == "cmp":
        return draw(_comparisons())
    items = tuple(draw(st.lists(_comparisons(), min_size=2, max_size=3)))
    return And(items) if kind == "and" else Or(items)


@given(_predicates())
def test_eval_matches_oracle(pred):
    table = build_canonical_table(100)
    for key in (100, 300, 5000, 10000):
        row = table.rows[key]
        assert eval_predicate(row, pred) == eval_pred_oracle(pred, row.values)


@given(_predicates(), _comparisons())
def test_match_set_monotonicity(pred, extra):
    table = build_canonical_table(100)
    base = {r.reckey for r in table.scan() if eval_predicate(r, pred)}
    tightened = And((pred, extra))
    narrowed = {r.reckey for r in table.scan() if eval_predicate(r, tightened)}
    assert narrowed <= base
