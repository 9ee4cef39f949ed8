import pytest

from isoharness.analyzer import (
    UnknownLevel,
    Verdict,
    analyze_history,
    detect_pairs,
    header_levels,
    judge,
    ru_write_records,
)
from isoharness.engine import EngineConfig, Strictness
from isoharness.notation import IsolationLevel as IL
from isoharness.outhist import parse_output

from conftest import fast_config, run_text
from oracles import pair_enumeration_oracle


def _pairs_sig(pairs):
    return {(p.first.submit_seq, p.second.submit_seq, p.cls, p.concurrent) for p in pairs}


# ------------------------------------------------------------ detect_pairs


def test_w_r_pair_concurrent_when_read_precedes_commit():
    # hand-built output: T2 read completes before T1's commit (a level
    # that failed to block), so the pair is concurrent
    text = (
        "# levels: 1=RC 2=RC\n"
        "1 1 W1(A=100,1001) OK BEFORE=" + _row_img(100, 10000) + " AFTER=" + _row_img(100, 1001) + "\n"
        "2 2 R2(A=100,X) OK VALUES=1001\n"
        "3 3 C1 OK\n"
        "4 4 C2 OK\n"
        "# final: 1=COMMITTED 2=COMMITTED\n"
    )
    oh = parse_output(text)
    pairs = detect_pairs(oh)
    assert _pairs_sig(pairs) == {(1, 2, "w_r", True)}
    judgment = judge(pairs, header_levels(oh))
    assert judgment.verdict is Verdict.VIOLATION


def test_w_r_after_commit_not_concurrent():
    text = (
        "# levels: 1=RC 2=RC\n"
        "1 1 W1(A=100,1001) OK BEFORE=" + _row_img(100, 10000) + " AFTER=" + _row_img(100, 1001) + "\n"
        "2 2 C1 OK\n"
        "3 3 R2(A=100,X) OK VALUES=1001\n"
        "4 4 C2 OK\n"
        "# final: 1=COMMITTED 2=COMMITTED\n"
    )
    oh = parse_output(text)
    pairs = detect_pairs(oh)
    assert _pairs_sig(pairs) == {(1, 3, "w_r", False)}
    assert judge(pairs, header_levels(oh)).verdict is Verdict.CONFORMS


def _row_img(reckey, recval):
    from isoharness.dataset import initial_row
    from isoharness.outhist import encode_image_side

    i = reckey // 100
    row = initial_row(i)
    row.values["recval"] = recval
    return encode_image_side(row)


def test_pr_then_insert_pair_from_run():
    oh, _ = run_text(
        "PRED(P, k2=0 and k3=0) IL1(RC) IL2(RC) PR1(P;reckey;all) I2(B;k2;k3, 0;0) C1 C2"
    )
    pairs = detect_pairs(oh)
    pr_w = [p for p in pairs if p.cls == "pr_w"]
    assert len(pr_w) == 1
    assert pr_w[0].concurrent  # RC predicate lock is short; insert executed
    assert judge(pairs, header_levels(oh)).verdict is Verdict.CONFORMS


def test_blocked_pair_from_run_not_concurrent():
    oh, _ = run_text("IL1(RC) IL2(RC) W1(A, 1001) W2(A, 2002) C1 C2")
    pairs = detect_pairs(oh)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.cls == "w_w" and pair.second_blocked and not pair.concurrent
    assert judge(pairs, header_levels(oh)).verdict is Verdict.CONFORMS


# ------------------------------------------------------------------ judge


def _mk_levels(l1, l2):
    return {1: l1, 2: l2}


def _executed_pair_text(op1, op2, levels):
    return (
        f"# levels: 1={levels[0]} 2={levels[1]}\n"
        f"1 1 {op1} OK BEFORE=" + _row_img(100, 10000) + " AFTER=" + _row_img(100, 1001) + "\n"
        f"2 2 {op2} OK VALUES=1001\n"
        "3 3 C1 OK\n"
        "4 4 C2 OK\n"
        "# final: 1=COMMITTED 2=COMMITTED\n"
    )


def test_judge_r_w_permitted_at_rc():
    # reader at RC, writer at SR: concurrent r_w is allowed
    text = (
        "# levels: 1=RC 2=SR\n"
        "1 1 R1(A=100,X) OK VALUES=10000\n"
        "2 2 W2(A=100,1001) OK BEFORE=" + _row_img(100, 10000) + " AFTER=" + _row_img(100, 1001) + "\n"
        "3 3 C1 OK\n"
        "4 4 C2 OK\n"
        "# final: 1=COMMITTED 2=COMMITTED\n"
    )
    oh = parse_output(text)
    assert judge(detect_pairs(oh), header_levels(oh)).verdict is Verdict.CONFORMS


def test_judge_r_w_violation_at_rr():
    text = (
        "# levels: 1=RR 2=RC\n"
        "1 1 R1(A=100,X) OK VALUES=10000\n"
        "2 2 W2(A=100,1001) OK BEFORE=" + _row_img(100, 10000) + " AFTER=" + _row_img(100, 1001) + "\n"
        "3 3 C1 OK\n"
        "4 4 C2 OK\n"
        "# final: 1=COMMITTED 2=COMMITTED\n"
    )
    oh = parse_output(text)
    judgment = judge(detect_pairs(oh), header_levels(oh))
    assert judgment.verdict is Verdict.VIOLATION
    assert len(judgment.violations) == 1


def test_judge_over_restrictive_r_w_blocked_at_rc():
    oh, _ = run_text(
        "#: name=strict\nIL1(RC) IL2(RC) R1(A, X) W2(A, 2002) C1 C2",
        engine=EngineConfig(strictness=Strictness.STRICT_ALL_LONG),
    )
    judgment = analyze_history(oh)
    assert judgment.verdict is Verdict.OVER_RESTRICTIVE
    assert len(judgment.over_restrictive) == 1


def test_block_explained_by_non_permitted_pair_not_over_restrictive():
    # W2 blocks on T1's write of A (w_w, not permitted); the permitted pr_w
    # pair with T1's scan of P must not be blamed for the block
    oh, _ = run_text(
        "PRED(P, k5=1) MAP(A, 200) IL1(RR) IL2(RC) PR1(P;reckey;all) W1(A, 5) W2(A, 7) C1 C2"
    )
    judgment = analyze_history(oh)
    assert judgment.verdict is Verdict.CONFORMS
    assert {p.cls for p in judgment.pairs} == {"pr_w", "w_w"}


def test_judge_unknown_level():
    oh, _ = run_text("IL1(RC) IL2(RC) W1(A, 1) R2(A, X) C1 C2")
    pairs = detect_pairs(oh)
    with pytest.raises(UnknownLevel):
        judge(pairs, {1: IL.RC})


def test_ru_write_reported():
    oh, _ = run_text(
        "#: default_level=RU\nR1(A) C1 W2(A) C2",
        engine=EngineConfig(ru_writes_allowed=True),
    )
    levels = header_levels(oh)
    writes = ru_write_records(oh, levels)
    assert len(writes) == 1 and writes[0].op_text.startswith("W2")
    judgment = judge(detect_pairs(oh), levels, writes)
    assert judgment.verdict is Verdict.VIOLATION


def test_ru_reads_exempt_from_pair_judgment():
    oh, _ = run_text(
        "IL1(RU) IL2(RC) R1(A, X) W2(A, 1001) C2 R1(A, Y) C1"
    )
    levels = header_levels(oh)
    pairs = detect_pairs(oh)
    judgment = judge(pairs, levels, ru_write_records(oh, levels))
    # the r_w pair involves an RU reader: excluded from the permitted table
    assert judgment.verdict is Verdict.CONFORMS


def test_blocked_write_without_images_inconclusive():
    # T1 never commits, so the blocked delete never produces images and its
    # predicate membership is undecidable
    oh, _ = run_text(
        "PRED(P, k2=0 and k3=0) MAP(A, 100) IL1(SR) IL2(RC) PR1(P;reckey;all) D2(A)"
    )
    pairs = detect_pairs(oh)
    unknown = [p for p in pairs if not p.membership_known]
    assert len(unknown) == 1 and unknown[0].cls == "pr_w"
    judgment = judge(pairs, header_levels(oh))
    assert judgment.verdict is Verdict.INCONCLUSIVE
    assert judgment.inconclusive


def test_blocked_item_pair_still_detected_without_images():
    # item-on-item pairing needs only the resolved reckey, not images
    oh, _ = run_text("IL1(RR) IL2(RC) R1(A, X) W2(A, 2002)")
    pairs = detect_pairs(oh)
    assert len(pairs) == 1
    assert pairs[0].cls == "r_w" and pairs[0].second_blocked
    assert pairs[0].membership_known


# ------------------------------------------------- oracle cross-validation


def test_detect_pairs_matches_oracle_on_mixed_histories():
    samples = [
        "IL1(RC) IL2(RC) W1(A, 1001) W2(A, 2002) C1 C2",
        "IL1(RC) IL2(RC) R1(A, X) W2(A, 2002) C1 C2",
        "IL1(RC) IL2(RC) W1(A, 1001) R2(A, X) C1 C2",
        "PRED(P, k2=0 and k3=0) IL1(RC) IL2(RC) PR1(P;reckey;all) I2(B;k2;k3, 0;0) C1 C2",
        "PRED(P, k2=0 and k3=0) MAP(A, 100) IL1(SR) IL2(RC) PR1(P;reckey;all) D2(A) C1 C2",
        "PRED(P, recval<15000) IL1(RC) IL2(RC) SU1(P, 100000) PR2(P;reckey;all) C1 C2",
        "IL1(RC) IL2(RC) RW1(A, X) RW2(A, Y) C1 A2",
        "IL1(RC) IL2(RC) W1(A, 1) W2(B, 2) C1 C2",  # disjoint rows: no pairs
    ]
    for text in samples:
        oh, _ = run_text(text)
        assert _pairs_sig(detect_pairs(oh)) == pair_enumeration_oracle(oh), text
