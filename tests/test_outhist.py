import re

import pytest
from hypothesis import given, settings, strategies as st

from isoharness import outhist
from isoharness.analyzer import analyze_history
from isoharness.dataset import Row, build_canonical_table
from isoharness.notation import SCHEMA_COLUMNS
from isoharness.outhist import (
    FormatError,
    OutputHistory,
    OutputRecord,
    RunHeader,
    WriteImage,
    decode_image_side,
    encode_image_side,
    parse_output,
    serialize,
)

from conftest import copy_row, run_text


def _image(reckey=100, before_val=10000, after_val=1001):
    table = build_canonical_table(200)
    before = copy_row(table.rows[reckey])
    before.values["recval"] = before_val
    after = copy_row(table.rows[reckey])
    after.values["recval"] = after_val
    return WriteImage(reckey, before, after)


def test_ok_read_line_format():
    rec = OutputRecord(3, 3, 1, "R1(A=100,X)", "OK", values=[10000])
    oh = OutputHistory(records=[rec])
    line = serialize(oh).splitlines()[-2]  # last line is the trailer
    assert line == "3 3 R1(A=100,X) OK VALUES=10000"


def test_blocked_write_line_format():
    rec = OutputRecord(4, 4, 2, "W2(A=100,2002)", "BLOCKED")
    line = serialize(OutputHistory(records=[rec])).splitlines()[-2]
    assert line == "4 4 W2(A=100,2002) BLOCKED"


def test_empty_history_is_header_and_trailer_only():
    text = serialize(OutputHistory())
    lines = text.splitlines()
    assert all(line.startswith("#") for line in lines)
    assert lines[-1].startswith("# final:")
    parsed = parse_output(text)
    assert parsed.records == []


def test_write_record_with_images_roundtrip():
    rec = OutputRecord(5, 5, 1, "W1(A=100,1001)", "OK", images=[_image()])
    oh = OutputHistory(
        header=RunHeader(name="demo", levels={1: "RC"}, meta={"class": "w_w"}),
        records=[rec],
        finals={1: "COMMITTED"},
    )
    assert parse_output(serialize(oh)) == oh


def test_insert_and_delete_images_roundtrip():
    table = build_canonical_table(200)
    new_values = {c: 0 for c in table.rows[100].values}
    new_values["reckey"] = 150
    ins = OutputRecord(
        1, 1, 1, "I1(B=150)", "OK",
        images=[WriteImage(150, None, Row(new_values))],
    )
    dele = OutputRecord(
        2, 2, 1, "D1(A=100)", "OK",
        images=[WriteImage(100, copy_row(table.rows[100]), None)],
    )
    oh = OutputHistory(records=[ins, dele])
    assert parse_output(serialize(oh)) == oh


def test_multi_image_record_roundtrip():
    rec = OutputRecord(
        7, 7, 1, "SU1(P,5)", "OK", values=[2],
        images=[_image(100), _image(300, 30000, 30005)],
    )
    oh = OutputHistory(records=[rec])
    assert parse_output(serialize(oh)) == oh


def test_resumed_status_roundtrip():
    rec = OutputRecord(6, 4, 2, "W2(A=100,2002)", "RESUMED", resumed_of=4, images=[_image()])
    oh = OutputHistory(records=[rec])
    parsed = parse_output(serialize(oh))
    assert parsed.records[0].status == "RESUMED"
    assert parsed.records[0].resumed_of == 4


def test_error_record_roundtrip():
    rec = OutputRecord(3, 2, 1, "R1(A=100,X)", "ERROR", error_code="RowNotFound")
    oh = OutputHistory(records=[rec], finals={1: "ACTIVE"})
    text = serialize(oh)
    assert "3 2 R1(A=100,X) ERROR=RowNotFound" in text.splitlines()
    parsed = parse_output(text)
    assert parsed == oh
    assert (parsed.records[0].status, parsed.records[0].error_code) == ("ERROR", "RowNotFound")


@pytest.mark.parametrize("line", [
    "+2 2 C1 OK",
    "2 1_0 C1 OK",
    "2 2 R1(A=100,X) OK VALUES=+1",
    "2 2 R1(A=100,X) OK VALUES=1_0",
    "2 2 PR1(P;reckey;recval;all) OK VALUES=100:+5",
    "2 2 W2(A=100,2) RESUMED=\u00b2",
    "# rows: +200",
    "# final: 1_0=COMMITTED",
])
def test_record_number_outside_language_rejected_on_its_line(line):
    # int() alone accepts each of these numbers
    text = f"# name: n\n1 1 C1 OK\n{line}\n# final: 1=COMMITTED\n"
    with pytest.raises(FormatError) as info:
        parse_output(text)
    assert info.value.line_no == 3


def test_malformed_status_rejected():
    good = serialize(OutputHistory(records=[OutputRecord(1, 1, 1, "C1", "OK")]))
    bad = good.replace(" OK", " SORT_OF_FINE")
    with pytest.raises(FormatError) as info:
        parse_output(bad)
    assert info.value.line_no > 0


def test_malformed_image_rejected():
    with pytest.raises(FormatError):
        parse_output("1 1 W1(A=100,1) OK BEFORE=nonsense AFTER=ABSENT\n# final:\n")


def test_stray_token_rejected():
    with pytest.raises(FormatError):
        parse_output("1 1 C1 OK garbage\n# final:\n")


def test_run_output_roundtrip():
    oh, _ = run_text("PRED(P, k2=0 and k3=0) IL1(SR) IL2(RC) PR1(P;recval;2;A, X) I2(B;k2;k3, 0;0) C1 C2")
    assert parse_output(serialize(oh)) == oh


def test_values_empty_list_roundtrip():
    oh, _ = run_text("PRED(P, reckey<100) IL1(RC) PR1(P;reckey;all) C1")
    rec = next(r for r in oh.records if r.op_text.startswith("PR1"))
    assert rec.values == []
    assert parse_output(serialize(oh)) == oh


# ------------------------------------------------------------ image decoding

_ROW_100 = build_canonical_table(200).rows[100]
_SIDE_100 = encode_image_side(_ROW_100)


@pytest.mark.parametrize("num", ["+5", " 5", "5 ", "1_0", "--5", "-", "", "\u00b2"])
def test_image_number_outside_language_rejected(num):
    # int() alone accepts several of these
    with pytest.raises(ValueError):
        decode_image_side(_SIDE_100.replace("recval:10000", f"recval:{num}"))


@pytest.mark.parametrize("num, value", [("-5", -5), ("0", 0), ("007", 7), ("\u0663", 3)])
def test_image_number_in_language_accepted(num, value):
    row = decode_image_side(_SIDE_100.replace("recval:10000", f"recval:{num}"))
    assert row.values["recval"] == value


def test_image_columns_checked():
    assert decode_image_side(_SIDE_100) == _ROW_100
    assert decode_image_side("ABSENT") is None
    with pytest.raises(ValueError):  # unknown column
        decode_image_side(_SIDE_100.replace("recval:", "recvel:"))
    with pytest.raises(ValueError):  # missing column
        decode_image_side(_SIDE_100.rsplit(";", 1)[0])
    with pytest.raises(ValueError):  # a duplicate in place of a column
        decode_image_side(_SIDE_100.replace("recval:10000", "reckey:100"))


_ANY_INT = st.one_of(st.integers(), st.integers(min_value=2**63), st.integers(max_value=-(2**63)))


@given(st.fixed_dictionaries({col: _ANY_INT for col in SCHEMA_COLUMNS}))
def test_encoder_writes_each_column_in_schema_order(values):
    row = Row(values)
    text = encode_image_side(row)
    assert text == ";".join(f"{col}:{row.values[col]}" for col in SCHEMA_COLUMNS)
    assert decode_image_side(text) == row


def _regex_decode(text):
    """Reference: the image-side language as a regular expression."""
    if text == "ABSENT":
        return None
    values = {}
    for part in text.split(";"):
        col, _, num = part.partition(":")
        if col not in SCHEMA_COLUMNS or not re.fullmatch(r"-?\d+", num):
            raise ValueError(part)
        values[col] = int(num)
    if set(values) != set(SCHEMA_COLUMNS):
        raise ValueError("incomplete")
    return Row(values)


_TEXT_CHARS = "0123456789-+_ :;\n\u00b2\u0663ABSENTrecky"
_NUMBERS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-", "--", "+", " "]),
    st.one_of(
        st.integers(0, 10**6).map(str),
        st.sampled_from(["", "\u00b2", "\u0663", "1_0"]),
        st.text(alphabet=_TEXT_CHARS, max_size=3),
    ),
    st.sampled_from(["", " ", "_0", "\n"]),
)


@st.composite
def _image_texts(draw):
    """Field texts near the language: a full row in any column order with
    one number replaced and up to two more edits, or arbitrary text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.one_of(st.just("ABSENT"), st.text(alphabet=_TEXT_CHARS, max_size=40)))
    fields = [[col, str(draw(st.integers(-10**6, 10**6)))]
              for col in draw(st.permutations(SCHEMA_COLUMNS))]
    fields[draw(st.integers(0, len(fields) - 1))][1] = draw(_NUMBERS)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(["number", "column", "drop", "duplicate"]))
        if edit == "number":
            fields[i][1] = draw(_NUMBERS)
        elif edit == "column":
            fields[i][0] = draw(st.sampled_from(SCHEMA_COLUMNS + ("", "recvel", "K2")))
        elif edit == "drop":
            del fields[i]
        else:
            fields.append(list(fields[i]))
    return ";".join(f"{col}:{num}" for col, num in fields)


def _outcome(decode, text):
    try:
        return decode(text)
    except ValueError:
        return ValueError


@settings(max_examples=500)
@given(_image_texts())
def test_decoder_matches_regex_reference(text):
    assert _outcome(decode_image_side, text) == _outcome(_regex_decode, text)


_OTHER_IMAGE = f"BEFORE=ABSENT AFTER={_SIDE_100}"  # keeps the side under test off the line's end


def _parse_side(text, before):
    """Parse a record line with ``text`` as one side of its first image, as
    line 2 of a file; returns that side, decoded."""
    fields = f"BEFORE={text} AFTER=ABSENT" if before else f"BEFORE=ABSENT AFTER={text}"
    oh = parse_output(f"# name: t\n1 1 W1(A=100,1) OK {fields} {_OTHER_IMAGE}\n# final:\n")
    image = oh.records[0].images[0]
    return image.before if before else image.after


@settings(max_examples=500)
@given(_image_texts(), st.booleans())
def test_parse_output_rejects_what_the_decoder_rejects(text, before):
    expected = _outcome(decode_image_side, text)
    if text == "ABSENT":
        expected = ValueError  # both sides of the image ABSENT
    try:
        side = _parse_side(text, before)
    except FormatError as exc:
        assert expected is ValueError
        assert exc.line_no == 2 or "\n" in text  # a newline ends the record early
    else:
        assert side == expected


_PERMUTED_100 = ";".join(sorted(_SIDE_100.split(";"), reverse=True))


@pytest.mark.parametrize("text", [
    _SIDE_100.replace("recval:10000", "recval:+5"),
    _SIDE_100.replace("recval:10000", "recval: 5"),
    _SIDE_100.replace("recval:10000", "recval:1_0"),
    _SIDE_100.replace("recval:10000", "reckey:100"),  # a duplicate column
    _SIDE_100.rsplit(";", 1)[0],  # 15 columns
])
@pytest.mark.parametrize("before", [True, False])
def test_parse_output_rejects_image_side(text, before):
    with pytest.raises(FormatError):
        _parse_side(text, before)


@pytest.mark.parametrize("before", [True, False])
def test_parse_output_checks_both_sides_of_an_update(before):
    bad = _SIDE_100.replace("recval:10000", "recval:+5")
    sides = (bad, _SIDE_100) if before else (_SIDE_100, bad)
    with pytest.raises(FormatError):
        parse_output("1 1 W1(A=100,1) OK BEFORE=%s AFTER=%s\n# final:\n" % sides)


@pytest.mark.parametrize("before", [True, False])
def test_parse_output_accepts_permuted_columns(before):
    assert not _PERMUTED_100.startswith("reckey:")
    assert _parse_side(_PERMUTED_100, before) == _ROW_100
    line = f"1 1 W1(A=100,1) OK BEFORE={_PERMUTED_100} AFTER=ABSENT"
    oh = parse_output(f"{line}\n# final:\n")
    assert oh.records[0].images[0].reckey == 100
    assert serialize(oh).splitlines()[-2] == line  # the text is kept verbatim


@pytest.mark.parametrize("fields, message", [
    (f"BEFORE={_SIDE_100} BEFORE={_SIDE_100} AFTER=ABSENT", "BEFORE without matching AFTER"),
    ("AFTER=ABSENT", "AFTER without BEFORE"),
    ("FOO=1", "unknown field 'FOO'"),
    ("stray", "stray token 'stray'"),
])
def test_bad_record_field_is_a_format_error_on_its_line(fields, message):
    line = f"1 1 W1(A=100,1) OK {fields}"
    with pytest.raises(FormatError) as info:
        parse_output(f"# name: t\n{line}\n# final:\n")
    assert info.value.line_no == 2
    assert str(info.value) == f"line 2: {message}: {line!r}"


def test_values_after_an_image_are_read_field_by_field():
    line = f"1 1 RW1(A=100) OK BEFORE=ABSENT AFTER={_PERMUTED_100} VALUES=1"
    rec = parse_output(f"{line}\n# final:\n").records[0]
    assert rec.values == [1]
    assert len(rec.images) == 1 and rec.images[0].after == _ROW_100


# ------------------------------------------------------------ lazy images


def test_images_decoded_only_when_a_row_is_needed(monkeypatch):
    calls = []
    decode = outhist.decode_image_side

    def counting(text):
        calls.append(text)
        return decode(text)

    monkeypatch.setattr(outhist, "decode_image_side", counting)
    oh, _ = run_text(
        "PRED(P, k2=0 and k3=0) MAP(A, 100) IL1(RC) IL2(RC) "
        "SU1(P,5) PR2(P;recval;all) W2(A, 7) C1 C2"
    )
    images = [img for rec in oh.records for img in rec.images]
    assert len(images) == 35  # 34 set-update rows and one write

    parsed = parse_output(serialize(oh))
    assert calls == []  # parse_output checks each side's text and decodes none
    parsed_images = [img for rec in parsed.records for img in rec.images]
    assert [img.reckey for img in parsed_images] == [img.reckey for img in images]
    assert calls == []  # a reckey comes from the text

    for judged in (oh, parsed):
        analyze_history(judged)
        analyze_history(judged)
    # the monitor's images are the engine's own and decode nothing; in the
    # parsed history the pr_w pair stops at the first image in P
    assert len(calls) <= 2
    for img in images + parsed_images:
        img.before, img.after, img.reckey, img.value_dicts()
    assert len(calls) == 2 * len(parsed_images)  # each side once, then cached
    assert parsed == oh and oh == parsed


@pytest.mark.parametrize("text, expected", [
    ("IL1(RC) W1(A, 1) W1(A, 2) A1", [(10000, 1), (1, 2)]),
    ("PRED(P, reckey<=200) IL1(RC) SU1(P, 5) SU1(P, 5) A1",
     [(10000, 10005), (20000, 20005), (10005, 10010), (20005, 20010)]),
])
def test_record_keeps_each_image_as_written(text, expected):
    # the records share their images with the undo log; a later write and the
    # rollback leave what each record serializes as it was written
    oh, _ = run_text(text)
    parsed = parse_output(serialize(oh))
    images = [img for rec in parsed.records for img in rec.images]
    assert [(img.before.values["recval"], img.after.values["recval"]) for img in images] == expected


def test_judging_a_set_update_decodes_a_handful_of_sides(monkeypatch):
    calls = []
    decode = outhist.decode_image_side
    monkeypatch.setattr(outhist, "decode_image_side", lambda text: calls.append(text) or decode(text))
    oh, _ = run_text(
        "PRED(S, k3=1) PRED(P, k5=0) IL1(RC) IL2(RC) SU1(S, 5) PR2(P;recval;all) C1 C2",
        rows=1000,
    )
    (su,) = [rec for rec in oh.records if rec.op_text.startswith("SU1")]
    assert len(su.images) == 333
    judgment = analyze_history(parse_output(serialize(oh)))
    assert [p.cls for p in judgment.pairs] == ["w_pr"]
    assert judgment.pairs[0].second_blocked
    # the fourth image is the first whose row has k5=0
    assert len(calls) <= 2 * 4, len(calls)


# ------------------------------------------------------------ kept VALUES

_DIGITS = "0123456789\u0663\u0967\uff11"  # with Arabic-Indic, Devanagari and fullwidth digits
_VALUE_NUMBERS = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "-"]), st.text(alphabet=_DIGITS, min_size=1, max_size=4)),
    st.integers(-10**12, 10**12).map(str),
)
_BAD_NUMBERS = st.sampled_from(["", "-", "--1", "+5", "1_0", " 5", "\u00b2", "1-2", "5-"])


@st.composite
def _values_payloads(draw):
    """Payloads near the VALUES language: values of one to four numbers (so
    widths mix) with up to two edits, "-", or arbitrary text."""
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return "-"
    if choice == 1:
        return draw(st.text(alphabet=_DIGITS[:3] + "-+_:,\u00b2", max_size=12))
    parts = draw(st.lists(st.lists(_VALUE_NUMBERS, min_size=1, max_size=4), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2)) if choice > 5 else 0):
        numbers = parts[draw(st.integers(0, len(parts) - 1))]
        if draw(st.booleans()):
            numbers[draw(st.integers(0, len(numbers) - 1))] = draw(_BAD_NUMBERS)
        else:
            numbers.insert(draw(st.integers(0, len(numbers))), draw(st.sampled_from(["", ":", ","])))
    return ",".join(":".join(numbers) for numbers in parts)


@settings(max_examples=250)
@given(_values_payloads())
def test_values_check_accepts_what_the_number_rule_accepts(text):
    expected = _outcome(outhist.decode_values, text)
    accepted = text == "-" or outhist._VALUES_RE.fullmatch(text) is not None
    assert accepted == (expected is not ValueError)
    if accepted:
        kept = outhist.ValuesText(text)
        assert kept.decoded == expected and kept == expected and expected == kept
        assert [type(v) for v in kept] == [type(v) for v in expected]
    else:
        with pytest.raises(ValueError):
            outhist.ValuesText(text)


_VALUES_FILE = serialize(OutputHistory(
    records=[OutputRecord(1, 1, 1, "C1", "OK"),
             OutputRecord(2, 2, 1, "PR1(P;reckey;all)", "OK", values=[0])],
    finals={1: "COMMITTED"},
))
_VALUES_LINE = _VALUES_FILE.splitlines().index("2 2 PR1(P;reckey;all) OK VALUES=0") + 1


def _values_file(payload):
    return _VALUES_FILE.replace(" VALUES=0\n", f" VALUES={payload}\n")


@settings(max_examples=150)
@given(_values_payloads())
def test_values_payload_round_trips_as_written(payload):
    text = _values_file(payload)
    try:
        parsed = parse_output(text)
    except FormatError as exc:
        assert exc.line_no == _VALUES_LINE
        assert _outcome(outhist.decode_values, payload) is ValueError
    else:
        assert serialize(parsed) == text
        assert parsed.records[1].values == outhist.decode_values(payload)


@pytest.mark.parametrize("payload", ["+5", "1_0", "1,,2", ",1", "1,", "", "1::2", "1:", "5-", "1,-"])
def test_rejected_values_payload_is_a_format_error_on_its_line(payload):
    with pytest.raises(FormatError) as info:
        parse_output(_values_file(payload))
    assert info.value.line_no == _VALUES_LINE


def test_values_payload_kept_as_written():
    parsed = parse_output(_values_file("007,-0,1:\u0663"))
    assert parsed.records[1].values == [7, 0, (1, 3)]
    assert "VALUES=007,-0,1:\u0663" in serialize(parsed)


@pytest.mark.parametrize("values, payload", [
    ([], "-"),
    ([5, -3], "5,-3"),
    ([(100, 1), (200, -2)], "100:1,200:-2"),
    ([(1, 2, 3), 4, (5, 6)], "1:2:3,4,5:6"),  # mixed widths
    ([(1, 2), (3, 4, 5)], "1:2,3:4:5"),
])
def test_encoded_values_parse_back(values, payload):
    assert outhist.encode_values(values) == payload
    assert outhist.ValuesText(payload) == values


def test_judging_a_scan_decodes_no_values_and_no_image_before_it_is_needed(monkeypatch):
    decoded = {"values": 0, "sides": 0}
    decode_values, decode_side = outhist.decode_values, outhist.decode_image_side

    def counting(kind, decode):
        def count(text):
            decoded[kind] += 1
            return decode(text)
        return count

    monkeypatch.setattr(outhist, "decode_values", counting("values", decode_values))
    monkeypatch.setattr(outhist, "decode_image_side", counting("sides", decode_side))
    oh, _ = run_text(
        "PRED(P1, k2=0 and k3=1) PRED(P2, k2=0 and k3=1) PRED(P3, k2=0 and k3=1) "
        "PRED(P4, k2=0 and k3=1) IL1(RR) IL2(RC) PR1(P1;reckey;all) PR1(P2;recval;100) "
        "PR1(P2;recval;all) PR1(P3;count(*);all) SS1(P4, sum(recval)) "
        "I2(N;reckey;recval;k2;k3, 1250;7;0;1) C1 C2",
        rows=2000,
    )
    parsed = parse_output(serialize(oh))
    assert decoded == {"values": 0, "sides": 0}
    judgment = analyze_history(parsed)
    assert {p.cls for p in judgment.pairs} == {"pr_w"}  # each of T1's five reads
    assert judgment.verdict.value == "CONFORMS"
    assert decoded["values"] == 0  # the judge reads no VALUES
    assert decoded["sides"] <= 2  # only the insert's image
    assert parsed == oh
