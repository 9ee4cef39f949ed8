"""Output histories: what actually happened when a history ran.

One record per line:

    seq submit_seq OP_TEXT STATUS [VALUES=...] [BEFORE=... AFTER=...]...

``seq`` is the record's position in completion order, ``submit_seq`` the
operation's position in submission order; the two records of a blocked
operation (BLOCKED, then RESUMED / ABORTED_DEADLOCK / ERROR) share a
submit_seq.  Header lines are prefixed ``#`` and echo the run configuration
plus the isolation level of every transaction; the trailer carries per-
transaction final statuses.  Every successful write record carries full
before/after row images (one BEFORE/AFTER pair per written row), which is
what lets the analyzer decide predicate membership after the fact.

A record made by the monitor keeps the engine's value list and
:class:`engine.WriteImage` objects; :func:`serialize` encodes a row's image
side once and keeps it in the ``Row``.  :func:`parse_output` checks the fields
after the status as it reads them, a ``VALUES=`` payload by one regex and the
images by one findall, and keeps each as its text (:class:`ValuesText`,
:class:`ImageText`), decoded only when used and written back verbatim.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .dataset import Row
from .engine import WriteImage
from .notation import IsolationLevel, SCHEMA_COLUMNS


class FormatError(Exception):
    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        self.line_no = line_no
        self.line = line
        super().__init__(f"line {line_no}: {message}: {line!r}")


STATUS_OK = "OK"
STATUS_BLOCKED = "BLOCKED"
STATUS_RESUMED = "RESUMED"
STATUS_ERROR = "ERROR"
STATUS_DEADLOCK = "ABORTED_DEADLOCK"
STATUS_READONLY = "READONLY_VIOLATION"

_PLAIN_STATUSES = {STATUS_OK, STATUS_BLOCKED, STATUS_DEADLOCK, STATUS_READONLY}
_COLUMNS = frozenset(SCHEMA_COLUMNS)


@dataclass
class OutputRecord:
    seq: int
    submit_seq: int
    txn: int
    op_text: str
    status: str
    resumed_of: Optional[int] = None
    error_code: Optional[str] = None
    values: Optional[Sequence] = None
    images: List[WriteImage] = field(default_factory=list)

    def completes(self) -> bool:
        """True for records that finish an operation (everything but BLOCKED)."""
        return self.status != STATUS_BLOCKED

    def succeeded(self) -> bool:
        return self.status in (STATUS_OK, STATUS_RESUMED)


@dataclass
class RunHeader:
    name: str = "<history>"
    lock_scope: str = "PREDICATE"
    strictness: str = "PER_LEVEL"
    default_level: str = "RC"
    rows: int = 200
    ru_writes_allowed: bool = False
    stuck: bool = False
    levels: Dict[int, str] = field(default_factory=dict)
    meta: Dict[str, str] = field(default_factory=dict)


@dataclass
class OutputHistory:
    header: RunHeader = field(default_factory=RunHeader)
    records: List[OutputRecord] = field(default_factory=list)
    finals: Dict[int, str] = field(default_factory=dict)

    def by_submit(self) -> Dict[int, list]:
        """Records grouped by submit_seq, preserving completion order."""
        groups: Dict[int, list] = {}
        for rec in self.records:
            groups.setdefault(rec.submit_seq, []).append(rec)
        return groups


# ----------------------------------------------------------------- encoding


_SIDE_FORMAT = ";".join(f"{col}:%d" for col in SCHEMA_COLUMNS)
_SIDE_VALUES = operator.itemgetter(*SCHEMA_COLUMNS)
# Without re.ASCII, \d is Unicode category Nd: the digits str.isdecimal() accepts.
_SIDE = ";".join(f"{col}:(-?\\d+)" if col == "reckey" else f"{col}:-?\\d+" for col in SCHEMA_COLUMNS)
# An image as serialize writes it, from the space before it: each side's text and reckey.
_IMAGE_RE = re.compile(f" BEFORE=(ABSENT|{_SIDE}) AFTER=(ABSENT|{_SIDE})")
_VALUES_RE = re.compile(r"-?\d+(?:[:,]-?\d+)*")  # a VALUES payload other than "-"


def _number(text: str) -> int:
    """A number of the file: an optional ``-`` and decimal digits, the integer
    rule of the history notation.  ``int()`` alone would also take ``+5``,
    `` 5`` or ``1_0``."""
    if not text.removeprefix("-").isdecimal():
        raise ValueError(f"bad number {text!r}")
    return int(text)


def encode_image_side(row: Optional[Row]) -> str:
    """A row's image side, encoded once and kept in the row."""
    if row is None:
        return "ABSENT"
    if row.side_text is None:
        row.side_text = _SIDE_FORMAT % _SIDE_VALUES(row.values)
    return row.side_text


def decode_image_side(text: str) -> Optional[Row]:
    """Inverse of :func:`encode_image_side`."""
    if text == "ABSENT":
        return None
    values = {}
    for part in text.split(";"):
        col, _, num = part.partition(":")
        if col not in _COLUMNS:
            raise ValueError(f"bad image field {part!r}")
        values[col] = _number(num)
    if len(values) != len(_COLUMNS):
        raise ValueError("incomplete row image")
    return Row(values)


def encode_image(image: WriteImage) -> str:
    """The ``BEFORE=`` and ``AFTER=`` fields of one image; kept text is written verbatim."""
    if isinstance(image, ImageText):
        before, after = image.texts
    else:
        before, after = encode_image_side(image.before), encode_image_side(image.after)
    return f"BEFORE={before} AFTER={after}"


class ImageText(WriteImage):
    """A write image kept as its checked record text: each side is decoded on
    first use, and :func:`serialize` writes the text back verbatim."""

    def __init__(self, before: str, after: str, reckey: int):
        self.texts = (before, after)
        self.reckey = reckey

    @classmethod
    def checked(cls, before: str, after: str) -> ImageText:
        """Raises ValueError for a side :func:`decode_image_side` rejects."""
        if before == after == "ABSENT":
            raise ValueError("image with both sides ABSENT")
        sides = decode_image_side(before), decode_image_side(after)
        return cls(before, after, (sides[1] or sides[0]).reckey)

    @cached_property
    def before(self) -> Optional[Row]:
        return decode_image_side(self.texts[0])

    @cached_property
    def after(self) -> Optional[Row]:
        return decode_image_side(self.texts[1])

    def __eq__(self, other):
        if not isinstance(other, WriteImage):
            return NotImplemented
        return (self.reckey, self.before, self.after) == (other.reckey, other.before, other.after)


def encode_values(values: Sequence) -> str:
    """A ``VALUES=`` payload.  Kept text is written verbatim; numbers, or rows
    of one width as a fetch returns them, are formatted in one pass."""
    if isinstance(values, ValuesText):
        return values.text
    if not values:
        return "-"
    kinds = set(map(type, values))
    if kinds == {int}:
        return ",".join(map(str, values))
    if kinds == {tuple} and len(set(map(len, values))) == 1:
        row = ":".join(["%s"] * len(values[0]))
        return ",".join([row] * len(values)) % tuple(chain.from_iterable(values))
    return ",".join([":".join(map(str, v)) if type(v) is tuple else str(v) for v in values])


def decode_values(text: str) -> list:
    if text == "-":
        return []
    return [tuple(map(_number, part.split(":"))) if ":" in part else _number(part)
            for part in text.split(",")]


class ValuesText:
    """A ``VALUES=`` payload kept as its record text: a payload that
    :func:`decode_values` rejects raises ValueError at once, the payload is
    decoded into the same list on first use, and :func:`serialize` writes the
    text back verbatim."""

    def __init__(self, text: str):
        if text != "-" and _VALUES_RE.fullmatch(text) is None:
            decode_values(text)  # names the first bad number
            raise ValueError(f"bad values {text!r}")
        self.text = text

    @cached_property
    def decoded(self) -> list:
        return decode_values(self.text)

    def __getitem__(self, index):
        return self.decoded[index]

    def __len__(self) -> int:
        return len(self.decoded)

    def __eq__(self, other):
        return self.decoded == (other.decoded if isinstance(other, ValuesText) else other)

    def __repr__(self) -> str:
        return f"ValuesText({self.text!r})"


def decode_fields(tokens) -> Tuple[Optional[Sequence], List[WriteImage]]:
    """Decode the fields after a record's status, ``VALUES=`` and paired
    ``BEFORE=``/``AFTER=`` tokens, into (values, images), each kept as its
    text.  Raises ValueError, naming what is wrong."""
    values = None
    images: List[WriteImage] = []
    pending_before: Optional[str] = None
    for token in tokens:
        key, sep, payload = token.partition("=")
        if not sep:
            raise ValueError(f"stray token {token!r}")
        if key == "VALUES":
            values = ValuesText(payload)
        elif key == "BEFORE":
            if pending_before is not None:
                raise ValueError("BEFORE without matching AFTER")
            pending_before = payload
        elif key == "AFTER":
            if pending_before is None:
                raise ValueError("AFTER without BEFORE")
            images.append(ImageText.checked(pending_before, payload))
            pending_before = None
        else:
            raise ValueError(f"unknown field {key!r}")
    if pending_before is not None:
        raise ValueError("BEFORE without matching AFTER")
    return values, images


def _decode_tail(line: str, start: int) -> Tuple[Optional[Sequence], List[WriteImage]]:
    """:func:`decode_fields` of ``line`` from ``start``, the space before the first
    field.  A leading ``VALUES=`` and images with sides ABSENT or in schema order
    are checked by one findall, whose matches must tile the rest of the line."""
    values = None
    pos = start
    if line.startswith(" VALUES=", pos):
        end = line.find(" ", pos + 8)
        pos = len(line) if end < 0 else end
        values = ValuesText(line[start + 8:pos])
    if pos == len(line):
        return values, []
    found = _IMAGE_RE.findall(line, pos)
    size = len(" BEFORE= AFTER=") * len(found) + sum([len(b) + len(a) for b, _, a, _ in found])
    if pos + size != len(line) or ("ABSENT", "", "ABSENT", "") in found:
        return decode_fields(line[start + 1:].split(" "))
    return values, [ImageText(before, after, int(after_key or before_key))
                    for before, before_key, after, after_key in found]


def _status_text(rec: OutputRecord) -> str:
    if rec.status == STATUS_RESUMED:
        return f"RESUMED={rec.resumed_of}"
    if rec.status == STATUS_ERROR:
        return f"ERROR={rec.error_code}"
    return rec.status


def _record_line(rec: OutputRecord) -> str:
    parts = [str(rec.seq), str(rec.submit_seq), rec.op_text, _status_text(rec)]
    if rec.values is not None:
        parts.append("VALUES=" + encode_values(rec.values))
    parts.extend(encode_image(img) for img in rec.images)
    return " ".join(parts)


_BOOL = {"yes": True, "no": False}
# Header keys read into a RunHeader field of the same name, and how.
_HEADER_FIELDS = {"name": str, "lock-scope": str, "strictness": str, "default-level": str,
                  "rows": _number, "ru-writes-allowed": _BOOL.__getitem__, "stuck": _BOOL.__getitem__}
# Written by older versions: the run mode and the stuck guard's timeout.
_RETIRED_KEYS = ("mode", "timeout")


def serialize(oh: OutputHistory) -> str:
    h = oh.header
    lines = [
        f"# name: {h.name}",
        f"# lock-scope: {h.lock_scope}",
        f"# strictness: {h.strictness}",
        f"# default-level: {h.default_level}",
        f"# rows: {h.rows}",
        f"# ru-writes-allowed: {'yes' if h.ru_writes_allowed else 'no'}",
    ]
    if h.stuck:
        lines.append("# stuck: yes")
    lines.append("# levels: " + " ".join(f"{t}={lvl}" for t, lvl in sorted(h.levels.items())))
    if h.meta:
        lines.append("# meta: " + " ".join(f"{k}={v}" for k, v in h.meta.items()))
    lines.extend(_record_line(rec) for rec in oh.records)
    lines.append("# final: " + " ".join(f"{t}={s}" for t, s in sorted(oh.finals.items())))
    return "\n".join(lines) + "\n"


_TXN_FROM_OP = re.compile(r"^[A-Za-z]+(\d+)")
_HEADER = re.compile(r"#\s*([\w-]+):\s*(.*)$")


def _parse_record_line(line: str, line_no: int) -> OutputRecord:
    parts = line.split(" ", 4)
    if len(parts) < 4:
        raise FormatError("record needs seq, submit_seq, op, status", line_no, line)
    try:
        seq = _number(parts[0])
        submit_seq = _number(parts[1])
    except ValueError:
        raise FormatError("bad sequence numbers", line_no, line)
    op_text = parts[2]
    status_token = parts[3]
    m = _TXN_FROM_OP.match(op_text)
    txn = int(m.group(1)) if m else 0
    rec = OutputRecord(seq, submit_seq, txn, op_text, STATUS_OK)
    name, _, arg = status_token.partition("=")
    if name == STATUS_RESUMED and arg.isdecimal():
        rec.status = STATUS_RESUMED
        rec.resumed_of = int(arg)
    elif name == STATUS_ERROR and arg:
        rec.status = STATUS_ERROR
        rec.error_code = arg
    elif status_token in _PLAIN_STATUSES:
        rec.status = status_token
    else:
        raise FormatError(f"unknown status {status_token!r}", line_no, line)
    try:
        if len(parts) == 5:
            rec.values, rec.images = _decode_tail(line, len(line) - len(parts[4]) - 1)
    except ValueError as exc:
        raise FormatError(str(exc), line_no, line)
    return rec


def parse_output(text: str) -> OutputHistory:
    """Inverse of :func:`serialize`; raises :class:`FormatError` per line."""
    oh = OutputHistory()
    h = oh.header
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER.match(line)
            if not m:
                raise FormatError("bad header line", line_no, line)
            key, value = m.group(1), m.group(2).strip()
            try:
                if key in _HEADER_FIELDS:
                    setattr(h, key.replace("-", "_"), _HEADER_FIELDS[key](value))
                elif key == "levels":
                    h.levels = _parse_assignments(value)
                    for level in h.levels.values():
                        if level not in IsolationLevel.__members__:
                            raise ValueError(f"unknown isolation level {level!r}")
                elif key == "meta":
                    h.meta = dict(part.split("=", 1) for part in value.split(" ") if part)
                elif key == "final":
                    oh.finals = _parse_assignments(value)
                elif key not in _RETIRED_KEYS:
                    raise ValueError(f"unknown header key {key!r}")
            except (ValueError, KeyError) as exc:
                raise FormatError(str(exc), line_no, line)
            continue
        oh.records.append(_parse_record_line(line, line_no))
    return oh


def _parse_assignments(value: str) -> dict:
    pairs = (part.partition("=") for part in value.split(" ") if part)
    return {_number(txn): status for txn, _, status in pairs}
