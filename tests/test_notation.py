import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import isoharness
from isoharness.notation import (
    And,
    Comparison,
    HistorySyntaxError,
    IsolationLevel,
    MAX_PREDICATE_NESTING,
    OpKind,
    Or,
    SemanticError,
    UnknownColumn,
    parse_history,
    parse_predicate,
    parse_record_op,
    render_history,
    render_predicate,
    render_step,
)

from oracles import eval_pred_oracle


def test_map_step():
    prog = parse_history("MAP(A, 100)")
    assert len(prog.steps) == 1
    step = prog.steps[0]
    assert step.kind is OpKind.MAP
    assert step.row_var == "A"
    assert step.literal == 100
    assert step.txn == 0


def test_empty_input():
    prog = parse_history("")
    assert prog.steps == []
    assert prog.unterminated == ()


def test_predicate_read_history():
    prog = parse_history("PRED(P, k2=1 and k3<2) IL1(SR) PR1(P;recval;1;A,X) C1")
    assert len(prog.steps) == 4
    pr = prog.steps[2]
    assert pr.kind is OpKind.PR
    assert pr.pred_var == "P"
    assert pr.column_spec == ("recval",)
    assert pr.row_limit == 1
    assert pr.row_var == "A"
    assert pr.value_var == "X"
    assert prog.steps[1].level is IsolationLevel.SR


def test_insert_with_columns():
    prog = parse_history("I2(B;recval;k2;k3, 3000;0;2)")
    step = prog.steps[0]
    assert step.kind is OpKind.I
    assert step.txn == 2
    assert step.column_spec == ("recval", "k2", "k3")
    assert step.value_spec == (3000, 0, 2)


def test_insert_length_mismatch():
    with pytest.raises(SemanticError):
        parse_history("I2(B;recval;k2, 3000)")


def test_pr_aggregate_and_reckey_forms():
    prog = parse_history("PR1(P;count(*);1) PR1(P;reckey;all)")
    agg, economical = prog.steps
    assert agg.aggregate == "count"
    assert agg.row_limit == 1
    assert economical.column_spec == ("reckey",)
    assert economical.row_limit == "all"


def test_write_value_variable_form():
    prog = parse_history("W3(B, A0)")
    step = prog.steps[0]
    assert step.value_var == "A0"
    assert step.literal is None


def test_commit_abort_bare():
    prog = parse_history("C1 A2")
    assert [s.kind for s in prog.steps] == [OpKind.C, OpKind.A]
    assert [s.txn for s in prog.steps] == [1, 2]


def test_il_must_be_first():
    with pytest.raises(SemanticError):
        parse_history("W1(A, 1) IL1(SR) C1")


def test_unknown_operation_position():
    with pytest.raises(HistorySyntaxError) as info:
        parse_history("MAP(A, 100)\nFOO1(A)")
    assert info.value.line == 2
    assert info.value.column == 1
    assert "FOO" in info.value.token


def test_unknown_default_level_is_a_located_syntax_error():
    with pytest.raises(HistorySyntaxError) as info:
        parse_history("#: default_level=SERIALIZABLE\nW1(A, 1) C1")
    assert (info.value.line, info.value.column, info.value.token) == (1, 18, "SERIALIZABLE")
    assert "default_level takes one of RU/RC/RR/SR" in str(info.value)
    assert parse_history("#: default_level=sr\nW1(A, 1) C1").default_level is IsolationLevel.SR
    assert parse_history("W1(A, 1) C1").default_level is IsolationLevel.RC


def test_every_bad_token_rejected_not_skipped():
    # a malformed token between two valid ones must fail, not silently drop
    with pytest.raises(HistorySyntaxError):
        parse_history("C1 123garbage C2")


def test_unterminated_flagging():
    prog = parse_history("IL1(RC) W1(A, 1) W2(B, 2) C2")
    assert prog.unterminated == (1,)


def test_comments_and_metadata():
    text = "# free comment\n#: class=w_w\n#: l1=RC\nC1 # trailing\n"
    prog = parse_history(text)
    assert prog.metadata == {"class": "w_w", "l1": "RC"}
    assert len(prog.steps) == 1


def test_case_insensitive_ops_case_sensitive_vars():
    prog = parse_history("map(a, 100) w1(a, 5) c1")
    assert prog.steps[0].row_var == "a"
    assert prog.steps[1].kind is OpKind.W
    with pytest.raises(HistorySyntaxError):
        parse_history("W1(A,)")


def test_spacing_tolerated_like_printed_examples():
    prog = parse_history('PRED (P, "k2=1 and k3<2")')
    assert prog.steps[0].predicate == And((Comparison("k2", "=", 1), Comparison("k3", "<", 2)))


# Every raise on the parse path, each with the line and column of its fault.
_MALFORMED = [
    ("MAP(A, +5)", HistorySyntaxError, 1, 8),  # expected integer
    ("SU1(P, 1_0)", HistorySyntaxError, 1, 8),
    ("I1(B;recval, +5)", HistorySyntaxError, 1, 14),
    ("IL1(RC)\nPRED(P, k2=)", HistorySyntaxError, 2, 12),
    ("PRED(P, k2=+5)", HistorySyntaxError, 1, 12),  # bad predicate token
    ("PRED(P, k2=1 & k3=2)", HistorySyntaxError, 1, 14),
    ('PRED(P, "(k2=1")', HistorySyntaxError, 1, 15),  # expected ')'
    ("PRED(P, 1=1)", HistorySyntaxError, 1, 9),  # expected column name
    ("PRED(P, k1=1)", UnknownColumn, None, None),
    ("PRED(P, k2 1)", HistorySyntaxError, 1, 12),  # expected relational operator
    ("PRED(P, k2=1 k3)", HistorySyntaxError, 1, 14),  # trailing predicate tokens
    ("C1 W1(A, 1", HistorySyntaxError, 1, 6),  # unbalanced '('
    ("R1(1A)", HistorySyntaxError, 1, 4),  # expected variable name
    ("PRED(P, k2=1)\nW1(A,\n  x y)", HistorySyntaxError, 3, 3),
    ("I1(B;k1, 5)", UnknownColumn, None, None),
    ("W1(A) IL1(RC)", SemanticError, None, None),  # IL not first
    ("C1 123", HistorySyntaxError, 1, 4),  # expected operation
    ("C1\n  XY2(A)", HistorySyntaxError, 2, 3),  # unknown operation
    ("MAP1(A, 100)", HistorySyntaxError, 1, 1),  # declarative subscript
    ("C1 W(A)", HistorySyntaxError, 1, 4),  # missing subscript
    ("W0(A)", HistorySyntaxError, 1, 1),  # subscript not positive
    ("C1(A)", HistorySyntaxError, 1, 1),  # commit/abort arguments
    ("R1 C1", HistorySyntaxError, 1, 1),  # missing argument list
    ("D1(A, B)", HistorySyntaxError, 1, 1),  # too many arguments
    ("IL1(XX)", HistorySyntaxError, 1, 5),  # unknown level
    ("SS1(P, max(recval))", HistorySyntaxError, 1, 8),  # unknown aggregate
    ("I1(A, 5)", HistorySyntaxError, 1, 7),  # bare insert with values
    ("I1(B;recval)", SemanticError, None, None),  # columns without values
    ("I1(B;recval;k2, 5)", SemanticError, None, None),  # lists differ in length
    ("PR1(P;recval)", HistorySyntaxError, 1, 5),  # no row limit
    ("PR1(P;recval;0)", SemanticError, None, None),  # row limit not positive
    ("PR1(P;recval;1;A;B)", HistorySyntaxError, 1, 18),  # fields after the row
]


@pytest.mark.parametrize("text, error, line, column", _MALFORMED)
def test_malformed_history_rejected_where_it_fails(text, error, line, column):
    with pytest.raises(error) as info:
        parse_history(text)
    assert type(info.value) is error
    if error is HistorySyntaxError:
        assert (info.value.line, info.value.column) == (line, column)


def test_record_op_must_be_one_operation():
    with pytest.raises(HistorySyntaxError) as info:
        parse_record_op("W1(A=100,1)C1")
    assert info.value.column == 8  # after the bindings are taken out: W1(A,1)C1


def test_negative_integers_accepted_everywhere():
    prog = parse_history(
        "MAP(A, -5) PRED(P, k2=-5) W1(A, -5) SU1(P, -5) I1(B;recval, -5) PR1(P;recval;all) C1"
    )
    mapped, pred, write, update, insert, _, _ = prog.steps
    assert mapped.literal == write.literal == update.literal == -5
    assert pred.predicate == Comparison("k2", "=", -5)
    assert insert.value_spec == (-5,)


def test_predicate_errors_placed_in_their_source():
    with pytest.raises(HistorySyntaxError) as info:
        parse_predicate("k2=1 or")
    assert (info.value.line, info.value.column) == (1, 8)
    with pytest.raises(HistorySyntaxError) as info:
        parse_predicate("k2 ! 1", offset=6, source="R1(A)\nk2 ! 1")
    assert (info.value.line, info.value.column, info.value.token) == (2, 4, "!")


# --- predicates ---


def test_parse_predicate_and():
    assert parse_predicate("k2=1 and k3<2") == And(
        (Comparison("k2", "=", 1), Comparison("k3", "<", 2))
    )


def test_parse_predicate_single():
    assert parse_predicate("k2=0") == Comparison("k2", "=", 0)


def test_parse_predicate_precedence():
    expr = parse_predicate("k2=0 or (k3=1 and k5<4)")
    assert expr == Or(
        (Comparison("k2", "=", 0), And((Comparison("k3", "=", 1), Comparison("k5", "<", 4))))
    )
    # and binds tighter without parentheses too
    assert parse_predicate("k2=0 or k3=1 and k5<4") == expr


def test_unknown_column_rejected():
    with pytest.raises(UnknownColumn):
        parse_predicate("k2=0 and k1=1")  # k1 does not exist in the schema


def test_predicate_render_roundtrip():
    for text in ("k2=1 and k3<2", "k2=0", "k2=0 or (k3=1 and k5<4)", "(k2=0 or k3=1) and k5<4"):
        expr = parse_predicate(text)
        assert parse_predicate(render_predicate(expr)) == expr
        assert parse_predicate(render_predicate(expr, compact=True)) == expr
        assert " " not in render_predicate(expr, compact=True)


# --- compiled predicates ---


@pytest.mark.parametrize("op", ["=", "<>", "<", ">", "<=", ">="])
def test_compiled_comparison_agrees_with_oracle(op):
    for value in (-3, -1, 0, 2):
        pred = Comparison("k2", op, value)
        for x in range(-4, 4):
            assert pred.test({"k2": x}) == eval_pred_oracle(pred, {"k2": x}), (value, x)


def test_empty_and_is_true_and_empty_or_is_false():
    assert And(()).test({}) is True
    assert Or(()).test({}) is False
    assert Or((And(()), Or(()))).test({}) and not And((And(()), Or(()))).test({})


def test_predicate_nested_50_levels_compiles():
    pred = Comparison("k2", "=", 0)
    for depth in range(50):
        pred = (And if depth % 2 else Or)((Comparison("k3", "=", depth), pred))
    for values in ({"k2": 0, "k3": 100}, {"k2": 1, "k3": 49}, {"k2": 1, "k3": 48}, {"k2": 0, "k3": 1}):
        assert pred.test(values) == eval_pred_oracle(pred, values), values


def _nested(levels: int) -> str:
    """A predicate whose parentheses nest ``levels`` deep, each level an Or
    holding an And, so its And/Or nodes nest twice as deep."""
    text = "k2=0"
    for depth in range(levels):
        text = f"k3={depth} or k2=1 and ({text})"
    return text


def test_predicate_at_the_nesting_limit_renders_compiles_and_evaluates():
    levels = MAX_PREDICATE_NESTING // 2  # its nodes nest exactly to the limit
    pred = parse_predicate(_nested(levels))
    for compact in (False, True):
        assert render_predicate(pred, compact).count("k3=") == levels
    assert pred.source.count(" or ") == levels
    for values in ({"k2": 0, "k3": 100}, {"k2": 1, "k3": 49}, {"k2": 1, "k3": 50}, {"k2": 0, "k3": 0}):
        assert pred.test(values) == eval_pred_oracle(pred, values), values


def test_predicate_deeper_than_the_limit_is_a_located_syntax_error():
    text = _nested(MAX_PREDICATE_NESTING + 1)
    with pytest.raises(HistorySyntaxError) as info:
        parse_history(f"IL1(RC)\nPRED(P, {text})")
    # the innermost parenthesis opens the level past the limit
    column = len("PRED(P, ") + text.rindex("(") + 1
    assert (info.value.line, info.value.column, info.value.token) == (2, column, "(")
    assert "nested deeper than" in str(info.value)


def test_predicate_nodes_deeper_than_the_limit_are_a_located_syntax_error():
    # Its parentheses nest 51 deep, but its nodes 102: the outermost And
    # holds an item whose nodes already nest to the limit.
    text = _nested(MAX_PREDICATE_NESTING // 2 + 1)
    with pytest.raises(HistorySyntaxError) as info:
        parse_history(f"IL1(RC)\nPRED(P, {text})")
    column = len("PRED(P, ") + text.index(" and ") + 2
    assert (info.value.line, info.value.column, info.value.token) == (2, column, "and")
    assert "nested deeper than" in str(info.value)
    # an item at the limit followed by an operator fails at that operator
    text = f"({_nested(MAX_PREDICATE_NESTING // 2)}) or k2=1"
    with pytest.raises(HistorySyntaxError) as info:
        parse_predicate(text)
    assert (info.value.column, info.value.token) == (text.rindex(" or ") + 2, "or")


_COMPARISONS = st.builds(Comparison, st.sampled_from(["k2", "k3", "recval"]),
                         st.sampled_from(["=", "<>", "<", ">", "<=", ">="]), st.integers(-3, 3))
_NODES = st.builds(lambda node, items: node(tuple(items)), st.sampled_from([And, Or]),
                   st.lists(_COMPARISONS, min_size=2, max_size=3))


@st.composite
def _nested_predicates(draw, nesting):
    """Predicates whose And/Or nodes nest ``nesting`` deep: a chain of nodes of
    either kind under a node of comparisons, each holding the next before or
    after a comparison or a node of comparisons."""
    pred = draw(_NODES)
    for _ in range(nesting - 1):
        other = draw(st.one_of(_COMPARISONS, _NODES))
        items = (pred, other) if draw(st.booleans()) else (other, pred)
        pred = draw(st.sampled_from([And, Or]))(items)
    return pred


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([MAX_PREDICATE_NESTING - 1, MAX_PREDICATE_NESTING]).flatmap(
    lambda nesting: st.tuples(st.just(nesting), _nested_predicates(nesting))))
def test_predicate_at_and_below_the_limit_parses_back_from_both_renderings(case):
    nesting, pred = case
    for compact in (False, True):
        assert parse_predicate(render_predicate(pred, compact)) == pred
    if nesting == MAX_PREDICATE_NESTING:  # one node more is rejected
        deeper = Or((pred, Comparison("k2", "=", 0)))
        for compact in (False, True):
            with pytest.raises(HistorySyntaxError, match="nested deeper than"):
                parse_predicate(render_predicate(deeper, compact))


def test_and_inside_and_renders_as_its_own_node():
    pred = parse_predicate("k2=0 and (k3=1 and k5<4)")
    assert pred == And((Comparison("k2", "=", 0), And((Comparison("k3", "=", 1), Comparison("k5", "<", 4)))))
    assert render_predicate(pred) == "k2=0 and (k3=1 and k5<4)"
    assert render_predicate(pred, compact=True) == "(k2=0)and((k3=1)and(k5<4))"
    for compact in (False, True):
        assert parse_predicate(render_predicate(pred, compact)) == pred


def test_comparison_fields_cannot_inject_code(capsys):
    with pytest.raises(KeyError):  # the column is only ever a key
        Comparison("k2'] or print('x') or v['k2", "=", 0).test({"k2": 0})
    with pytest.raises(KeyError):  # an operator is one of the six
        Comparison("k2", "== 0 or print('x') or 0 ==", 0).test({"k2": 0})
    with pytest.raises(ValueError):  # a value is an integer
        Comparison("k2", "=", "0 or print('x')").test({"k2": 0})
    assert capsys.readouterr().out == ""


def test_equal_predicates_share_one_compiled_function():
    text = "k2=0 and (k3=1 or k5<2)"
    first, second = parse_predicate(text), parse_predicate(text)
    assert first is not second and first.test is second.test


# --- rendering ---


def test_render_single_map():
    prog = parse_history("MAP(A, 100)")
    assert render_history(prog) == "MAP(A, 100)"


def test_render_empty():
    prog = parse_history("")
    assert render_history(prog) == ""


_SAMPLES = [
    "MAP(A, 100)",
    "PRED(P, k2=1 and k3<2) IL1(SR) PR1(P;recval;1;A, X) C1",
    "IL1(RC) IL2(RC) W1(A, 1001) W2(A, 2002) C1 C2",
    "I1(A) I2(B;recval;k2;k3, 3000;0;2) D1(A) C1 C2",
    "RW1(A, X) RW1(A) SU1(P) SU1(P, 5) SS1(P, sum(recval)) SS2(P, count(*)) A1 C2",
    "PR1(P;reckey;all) PR2(P;count(*);1) C1 C2",
]


@pytest.mark.parametrize("text", _SAMPLES)
def test_parse_render_roundtrip(text):
    prog = parse_history(text)
    assert parse_history(render_history(prog)) == prog


def test_position_preservation():
    text = "MAP(A, 100) IL1(RC) R1(A, X) W1(A, 5) C1"
    prog = parse_history(text)
    kinds = [s.kind for s in prog.steps]
    assert kinds == [OpKind.MAP, OpKind.IL, OpKind.R, OpKind.W, OpKind.C]


# --- resolved record op text ---


def test_record_op_roundtrip_with_bindings():
    prog = parse_history("W2(A, 2002)")
    text = render_step(prog.steps[0], {"A": 100}, compact=True)
    assert text == "W2(A=100,2002)"
    step, bindings = parse_record_op(text)
    assert step.kind is OpKind.W
    assert bindings == {"A": 100}


def test_record_op_pred_not_mistaken_for_binding():
    step, bindings = parse_record_op("PRED(P,(k2=1)and(k3<2))")
    assert step.kind is OpKind.PRED
    assert bindings == {}
    assert step.predicate == And((Comparison("k2", "=", 1), Comparison("k3", "<", 2)))


# --- property: parse(render(p)) == p over random programs ---


_row_vars = st.sampled_from(["A", "B", "E", "F"])
_pred_vars = st.sampled_from(["P", "Q"])
_txns = st.integers(min_value=1, max_value=3)
_columns = st.sampled_from(["k2", "k3", "k5", "recval", "c4"])
_relops = st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])


@st.composite
def _predicate_text(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    comps = [
        f"{draw(_columns)}{draw(_relops)}{draw(st.integers(min_value=-5, max_value=20))}"
        for _ in range(n)
    ]
    joiner = draw(st.sampled_from([" and ", " or "]))
    return joiner.join(comps)


@st.composite
def _step_text(draw):
    kind = draw(st.sampled_from(["MAP", "PRED", "IL", "R", "W", "RW", "I", "D", "PR", "SU", "SS", "C", "A"]))
    t = draw(_txns)
    if kind == "MAP":
        return f"MAP({draw(_row_vars)}, {draw(st.integers(min_value=1, max_value=10000))})"
    if kind == "PRED":
        return f"PRED({draw(_pred_vars)}, {draw(_predicate_text())})"
    if kind == "IL":
        return f"IL{t}({draw(st.sampled_from(['RU', 'RC', 'RR', 'SR']))})"
    if kind == "R":
        return f"R{t}({draw(_row_vars)}, X{t})"
    if kind == "W":
        return f"W{t}({draw(_row_vars)}, {draw(st.integers(min_value=0, max_value=99999))})"
    if kind == "RW":
        return f"RW{t}({draw(_row_vars)})"
    if kind == "I":
        return f"I{t}({draw(_row_vars)};k2;k3, 0;1)"
    if kind == "D":
        return f"D{t}({draw(_row_vars)})"
    if kind == "PR":
        limit = draw(st.sampled_from(["1", "3", "all"]))
        return f"PR{t}({draw(_pred_vars)};recval;{limit};{draw(_row_vars)}, X{t})"
    if kind == "SU":
        return f"SU{t}({draw(_pred_vars)}, {draw(st.integers(min_value=-5, max_value=5))})"
    if kind == "SS":
        return f"SS{t}({draw(_pred_vars)}, {draw(st.sampled_from(['sum(recval)', 'count(*)']))})"
    return f"{kind}{t}"


@given(st.lists(_step_text(), max_size=12))
def test_random_program_roundtrip(step_texts):
    # IL steps must come first for their transaction; filter invalid drafts
    text = " ".join(step_texts)
    try:
        prog = parse_history(text)
    except SemanticError:
        return
    assert parse_history(render_history(prog)) == prog


_REIMPORT = """
import gc, sys, weakref
sys.path.insert(0, sys.argv[1])
import isoharness
isoharness.run_history(isoharness.parse_history("PRED(P, k2=1) IL1(RC) PR1(P;reckey;1) W1(A, 5) C1"))
old = weakref.ref(sys.modules["isoharness.notation"].Comparison)
for name in [n for n in sys.modules if n.split(".")[0] == "isoharness"]:
    del sys.modules[name]
del isoharness
import isoharness
gc.collect()
sys.exit(old() is not None)
"""


def test_reimport_releases_the_old_notation_classes():
    # A fresh import must not keep the previous import's classes alive (a
    # run-time typing alias naming them would, through typing's cache).  In
    # a subprocess, so this suite's own modules are not swapped.
    src = str(Path(isoharness.__file__).resolve().parents[1])
    assert subprocess.run([sys.executable, "-c", _REIMPORT, src]).returncode == 0
