import pytest

from isoharness.analyzer import detect_pairs
from isoharness.executor import Monitor
from isoharness.generator import (
    ALL_CLASSES,
    MATRIX_LEVELS,
    PREDICATE_VARIANTS,
    generate_matrix,
    ru_scenario,
)
from isoharness.notation import (
    IsolationLevel as IL,
    OpKind,
    parse_history,
    render_history,
)

from conftest import fast_config


def test_default_matrix_shape():
    programs = generate_matrix()
    assert len(programs) == 45
    tuples = {
        (p.metadata["class"], p.metadata["l1"], p.metadata["l2"], p.metadata["variant"])
        for p in programs
    }
    assert len(tuples) == 45
    for cls in ALL_CLASSES:
        for l1 in MATRIX_LEVELS:
            for l2 in MATRIX_LEVELS:
                variant = "default" if cls in ("w_w", "w_r", "r_w") else "insert"
                assert (cls, l1.name, l2.name, variant) in tuples


def test_w_w_rc_rc_template_body():
    prog = generate_matrix(classes=("w_w",), levels=(IL.RC,))[0]
    ops = [s for s in prog.steps]
    rendered = " ".join(
        line for line in render_history(prog).splitlines() if not line.startswith("#")
    )
    assert rendered == "IL1(RC) IL2(RC) W1(A, 1001) W2(A, 2002) C1 C2"


def test_pr_w_insert_template_structure():
    prog = generate_matrix(classes=("pr_w",), levels=(IL.SR,))[0]
    kinds = [s.kind for s in prog.steps]
    assert kinds == [OpKind.PRED, OpKind.IL, OpKind.IL, OpKind.PR, OpKind.I, OpKind.C, OpKind.C]


def test_empty_classes_yield_empty_list():
    assert generate_matrix(classes=()) == []


def test_levels_outside_matrix_rejected():
    with pytest.raises(ValueError):
        generate_matrix(levels=(IL.RU,))


def test_all_variants_instantiate_and_parse():
    programs = generate_matrix(variants=PREDICATE_VARIANTS)
    # 3 item classes x 9 + 2 predicate classes x 4 variants x 9
    assert len(programs) == 27 + 72
    for prog in programs:
        assert parse_history(render_history(prog)) == prog


def test_each_generated_history_has_one_intended_pair():
    for prog in generate_matrix():
        cls = prog.metadata["class"]
        monitor = Monitor(prog, fast_config())
        output = monitor.run()
        assert not output.header.stuck, prog.source_name
        assert output.finals and all(
            status in ("COMMITTED",) for status in output.finals.values()
        ), prog.source_name
        matching = [p for p in detect_pairs(output) if p.cls == cls]
        assert len(matching) == 1, prog.source_name


def test_roundtrip_over_corpus():
    for prog in generate_matrix(variants=PREDICATE_VARIANTS) + [ru_scenario()]:
        assert parse_history(render_history(prog)) == prog


def test_ru_scenario_operation_sequence():
    prog = ru_scenario()
    ops = [line for line in render_history(prog).splitlines() if not line.startswith("#")]
    assert ops == [
        "R1(A)",
        "R1(B)",
        "C1",
        "W2(A)",
        "R3(A, A0)",
        "W3(B, A0)",
        "C3",
        "A2",
        "R4(A)",
        "R4(B)",
        "C4",
    ]
    assert prog.metadata["default_level"] == "RU"
