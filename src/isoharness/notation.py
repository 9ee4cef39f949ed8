"""History notation: parsing and rendering of scripted transaction histories.

A history is a whitespace-separated sequence of operation tokens such as

    PRED(P, k2=1 and k3<2) IL1(SR) PR1(P;recval;1;A, X) C1

Operation names are case-insensitive and carry the transaction subscript as
trailing decimal digits (``W1``, ``PR2``).  Declarative operations (``PRED``,
``MAP``) have no subscript.  ``#`` starts a line comment; comment lines of the
form ``#: key=value`` carry program metadata (used by the generator to tag a
history with its intended conflict class).  An integer, wherever one appears,
is an optional ``-`` and decimal digits.

:func:`parse_history` and :func:`parse_record_op` read each operation with one
scanner that keeps every argument's offset, so a :class:`HistorySyntaxError`
names the line and column of its fault, inside a ``PRED`` expression too.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import TYPE_CHECKING, Optional, Union


SCHEMA_COLUMN_SUFFIXES = (2, 3, 4, 5, 6, 50, 100)

#: Column order of the canonical table, also used for dumps and row images.
SCHEMA_COLUMNS = (
    ("reckey", "recval")
    + tuple(f"c{n}" for n in SCHEMA_COLUMN_SUFFIXES)
    + tuple(f"k{n}" for n in SCHEMA_COLUMN_SUFFIXES)
)

_SCHEMA_COLUMN_SET = frozenset(SCHEMA_COLUMNS)


class NotationError(Exception):
    """Base class for history / predicate parse failures."""


class HistorySyntaxError(NotationError):
    """A token that does not fit the operation grammar.

    Carries the character ``offset`` into the source, the 1-based ``line``
    and ``column``, and the offending ``token`` text.
    """

    def __init__(self, message: str, offset: int, token: str, source: str = ""):
        self.offset = offset
        self.token = token
        self.line = source.count("\n", 0, offset) + 1
        self.column = offset - (source.rfind("\n", 0, offset) + 1) + 1
        super().__init__(f"{message} at line {self.line}, column {self.column}: {token!r}")


class SemanticError(NotationError):
    """Structurally valid token with invalid meaning (bad column, IL not first, ...)."""


class UnknownColumn(SemanticError):
    """Predicate or column list references a column outside the canonical schema."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"unknown column {column!r}")


class IsolationLevel(IntEnum):
    """ANSI isolation levels, ordered by strength (RU weakest)."""

    RU = 0
    RC = 1
    RR = 2
    SR = 3


class OpKind(Enum):
    PRED = "PRED"
    MAP = "MAP"
    IL = "IL"
    R = "R"
    W = "W"
    RW = "RW"
    I = "I"
    D = "D"
    PR = "PR"
    SU = "SU"
    SS = "SS"
    C = "C"
    A = "A"


#: Kinds that perform an item write (the broad "W" of conflict analysis).
WRITE_KINDS = frozenset({OpKind.W, OpKind.RW, OpKind.I, OpKind.D, OpKind.SU})

#: Declarative kinds: no transaction, no engine access.
DECLARATIVE_KINDS = frozenset({OpKind.PRED, OpKind.MAP})

ROW_LIMIT_ALL = "all"

RelOp = str  # one of = < > <= >= <>

#: Each relational operator, with the Python operator it compiles to.
_REL_OPS = {"=": "==", "<>": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


@functools.lru_cache(maxsize=256)
def _compile(source: str):
    """The function of a row's values ``v`` that ``source`` computes: one per
    text, as each judged history parses its predicates again."""
    return eval("lambda v: " + source, {})


class _Node:
    """A predicate; ``source`` renders it as a Python expression over ``v``."""

    @functools.cached_property
    def test(self):
        """``holds`` compiled to one function, so a row costs one call."""
        return _compile(self.source)

    def holds(self, row_values) -> bool:
        return self.test(row_values)


@dataclass(frozen=True)
class Comparison(_Node):
    column: str
    op: RelOp
    value: int

    @property
    def source(self) -> str:
        # repr(column) and int(value) alone: no field can inject code
        return f"v[{self.column!r}] {_REL_OPS[self.op]} {int(self.value)}"


@dataclass(frozen=True)
class And(_Node):
    items: tuple

    @property
    def source(self) -> str:
        # ``and`` binds tighter than ``or``: only an Or item needs parentheses
        return " and ".join(f"({item.source})" if isinstance(item, Or) else item.source
                            for item in self.items) or "True"


@dataclass(frozen=True)
class Or(_Node):
    items: tuple

    @property
    def source(self) -> str:
        return " or ".join(item.source for item in self.items) or "False"


if TYPE_CHECKING:
    # Only for type checkers: typing caches subscripted generics, so at run
    # time the union would keep the classes of every import alive.
    PredicateExpr = Union[Comparison, And, Or]


@dataclass
class Step:
    """One parsed operation of a history.

    ``txn`` is 0 for declarative steps.  Which optional fields are populated
    depends on ``kind``; ``value_var`` names a value variable both when it is
    a read destination (R, RW, PR) and when it is a write source (W).
    """

    kind: OpKind
    txn: int = 0
    row_var: Optional[str] = None
    value_var: Optional[str] = None
    pred_var: Optional[str] = None
    literal: Optional[int] = None
    column_spec: Optional[tuple] = None
    value_spec: Optional[tuple] = None
    row_limit: Optional[object] = None  # positive int or ROW_LIMIT_ALL
    aggregate: Optional[str] = None  # "count" or "sum"
    predicate: Optional[PredicateExpr] = None  # PRED only
    level: Optional[IsolationLevel] = None  # IL only


@dataclass(eq=False)
class HistoryProgram:
    """An ordered, validated list of steps plus metadata comments.

    ``unterminated`` lists transactions with no C/A step; that is a warning
    condition, not an error.  Equality compares steps and metadata only
    (``source_name`` is a label).
    """

    steps: list = field(default_factory=list)
    source_name: str = "<history>"
    metadata: dict = field(default_factory=dict)
    unterminated: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, HistoryProgram):
            return NotImplemented
        return self.steps == other.steps and self.metadata == other.metadata

    @property
    def default_level(self) -> IsolationLevel:
        """The level of a transaction with no IL step: ``#: default_level=``, else RC."""
        return IsolationLevel[self.metadata.get("default_level", "RC").upper()]


# --- predicate expressions -------------------------------------------------

#: The notation's one integer rule: an optional ``-`` and decimal digits.
#: ``int()`` alone would also take ``+5``, `` 5`` or ``1_0``.
_INT = re.compile(r"-?\d+")

_PRED_TOKEN = re.compile(rf"\s*(\(|\)|<=|>=|<>|=|<|>|{_INT.pattern}|[A-Za-z_][A-Za-z_0-9]*)")


#: The deepest a predicate's And/Or nodes, and its parentheses (a guard for
#: the parser's recursion), may nest.  No rendering nests its parentheses
#: deeper than the nodes, so every accepted predicate renders in either form
#: to text that parses back, and builds its ``source``, compiles and runs.
MAX_PREDICATE_NESTING = 100


def _parse_int(arg: tuple, source: str) -> int:
    """The integer of a ``(text, offset)`` pair."""
    text, offset = arg
    if not _INT.fullmatch(text):
        raise HistorySyntaxError("expected integer", offset, text, source)
    return int(text)


def parse_predicate(text: str, offset: int = 0, source: Optional[str] = None) -> PredicateExpr:
    """Parse a boolean expression over schema columns.

    ``and`` binds tighter than ``or``; parentheses override.  Comparison
    operators: = < > <= >= <>.  ``text`` starts at ``offset`` in ``source``
    (by default ``text`` itself), so a :class:`HistorySyntaxError` for
    malformed input gives the line and column of its token in ``source``.
    Raises :class:`UnknownColumn` for non-schema columns.
    """
    if source is None:
        source = text
    tokens = []  # (token, offset in source), closed by ("", end of text)
    pos = 0
    while m := _PRED_TOKEN.match(text, pos):
        tokens.append((m.group(1), offset + m.start(1)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise HistorySyntaxError("bad predicate token", offset + len(text) - len(rest),
                                 rest.split()[0], source)
    tokens.append(("", offset + len(text)))
    i = depth = 0

    def take():
        nonlocal i
        token = tokens[i]
        i = min(i + 1, len(tokens) - 1)
        return token

    def next_is(word):
        return tokens[i][0].lower() == word

    def parse_items(parse_item, word, node):
        """Items joined by ``word``, as one ``node`` if there are several,
        with its nesting: the And/Or nodes on its deepest path."""
        item, nesting = parse_item()
        items = [item]
        while next_is(word):
            joined = take()
            item, inner = parse_item()
            nesting = max(nesting, inner)
            if nesting == MAX_PREDICATE_NESTING:  # the node joined here nests one deeper
                raise too_deep(joined)
            items.append(item)
        return (items[0], nesting) if len(items) == 1 else (node(tuple(items)), nesting + 1)

    def too_deep(token):
        return HistorySyntaxError(f"predicate nested deeper than {MAX_PREDICATE_NESTING} levels",
                                  token[1], token[0], source)

    def parse_or():
        return parse_items(lambda: parse_items(parse_factor, "and", And), "or", Or)

    def parse_factor():
        nonlocal depth
        if not next_is("("):
            return parse_comparison(), 0
        paren = take()
        if depth == MAX_PREDICATE_NESTING:
            raise too_deep(paren)
        depth += 1
        inner = parse_or()
        depth -= 1
        close, at = take()
        if close != ")":
            raise HistorySyntaxError("expected ')'", at, close, source)
        return inner

    def parse_comparison():
        col, at = take()
        if not col[:1].isalpha():
            raise HistorySyntaxError("expected column name", at, col, source)
        if col not in _SCHEMA_COLUMN_SET:
            raise UnknownColumn(col)
        op, at = take()
        if op not in _REL_OPS:
            raise HistorySyntaxError("expected relational operator", at, op, source)
        return Comparison(col, op, _parse_int(take(), source))

    expr, _ = parse_or()
    extra, at = take()
    if extra:
        raise HistorySyntaxError("trailing predicate tokens", at, extra, source)
    return expr


def render_predicate(expr: PredicateExpr, compact: bool = False) -> str:
    """Render a predicate canonically; ``compact`` produces a space-free form
    (each comparison parenthesized) safe to embed in output-history records."""
    if isinstance(expr, Comparison):
        body = f"{expr.column}{expr.op}{expr.value}"
        return f"({body})" if compact else body
    conjunction = isinstance(expr, And)
    parts = []
    for item in expr.items:
        text = render_predicate(item, compact)
        # an Or item needs parentheses, and an And item in an And keeps its own
        # with them; an And item in an Or only reads better with them
        if isinstance(item, Or) or (isinstance(item, And) and (conjunction or not compact)):
            text = f"({text})"
        parts.append(text)
    word = "and" if conjunction else "or"
    return (word if compact else f" {word} ").join(parts)


# --- history surface grammar -----------------------------------------------

_WORD = re.compile(r"([A-Za-z]+)(\d*)")
_OPEN = re.compile(r"[ \t]*\(")  # the paper writes "PRED (P, ...)"
_ARG_MARK = re.compile(r'[(),"]')
_SPACE = re.compile(r"\s*")
_COMMENT = re.compile(r"#[^\n]*")
_META = re.compile(r"#:\s*([A-Za-z_][\w-]*)\s*=\s*(.*?)\s*$")
_VAR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_BINDING = re.compile(rf"({_VAR_NAME.pattern})=({_INT.pattern})(?=[,;)])")

_KIND_NAMES = {k.value: k for k in OpKind}

#: The argument list of each kind as its errors show it, and how many
#: arguments it takes.
_SIGNATURES = {
    OpKind.PRED: ("(var, expression)", 2, 2),
    OpKind.MAP: ("(var, reckey)", 2, 2),
    OpKind.IL: ("(level)", 1, 1),
    OpKind.R: ("(row[, var])", 1, 2),
    OpKind.RW: ("(row[, var])", 1, 2),
    OpKind.W: ("(row[, value])", 1, 2),
    OpKind.D: ("(row)", 1, 1),
    OpKind.I: ("(row[;columns, values])", 1, 2),
    OpKind.PR: ("(pred;columns;limit[;row][, var])", 1, 2),
    OpKind.SU: ("(pred[, delta])", 1, 2),
    OpKind.SS: ("(pred[, aggregate])", 1, 2),
}

_AGGREGATES = {"sum(recval)": "sum", "count(*)": "count"}


def _strip_comments(source: str):
    """Blank out # comments, collecting ``#: key=value`` metadata lines.

    A ``default_level`` value must name a level.  Blanking keeps every offset
    into the cleaned text an offset into the source.
    """
    metadata = {}

    def blank(m):
        meta = _META.match(m.group())
        if meta:
            metadata[meta.group(1)] = meta.group(2)
            if meta.group(1) == "default_level":
                _level(meta.group(2), m.start() + meta.start(2), "default_level", source)
        return " " * len(m.group())

    return _COMMENT.sub(blank, source), metadata


def _level(text: str, offset: int, what: str, source: str) -> IsolationLevel:
    if text.upper() not in IsolationLevel.__members__:
        raise HistorySyntaxError(f"{what} takes one of RU/RC/RR/SR", offset, text, source)
    return IsolationLevel[text.upper()]


def _stripped(text: str, offset: int) -> tuple:
    """``text`` at ``offset`` without surrounding whitespace, as a
    ``(text, offset)`` pair."""
    body = text.lstrip()
    return body.rstrip(), offset + len(text) - len(body)


def _arguments(text: str, start: int, source: str):
    """Read the argument list whose ``(`` is ``text[start]``.

    Returns a stripped ``(text, offset)`` pair per argument, split at commas
    outside nested parentheses and double quotes, and the offset just past
    the closing ``)``.
    """
    args = []
    depth = 0
    quoted = False
    mark = start + 1
    for m in _ARG_MARK.finditer(text, start):
        ch = m.group()
        if ch == '"':
            quoted = not quoted
        elif quoted:
            continue
        elif ch == "(":
            depth += 1
        elif ch == ")" and depth > 1:
            depth -= 1
        elif depth == 1:  # a top-level "," or the closing ")"
            args.append(_stripped(text[mark:m.start()], mark))
            mark = m.end()
            if ch == ")":
                return args, mark
    raise HistorySyntaxError("unbalanced '('", start, text[start:start + 8], source)


def _fields(arg: tuple) -> list:
    """The ``;``-separated fields of an argument, as ``(text, offset)`` pairs."""
    text, offset = arg
    fields = []
    for piece in text.split(";"):
        fields.append(_stripped(piece, offset))
        offset += len(piece) + 1
    return fields


def _var_name(arg: tuple, source: str) -> str:
    name, offset = arg
    if not _VAR_NAME.fullmatch(name):
        raise HistorySyntaxError("expected variable name", offset, name, source)
    return name


def _schema_columns(names) -> tuple:
    for name in names:
        if name not in _SCHEMA_COLUMN_SET:
            raise UnknownColumn(name)
    return tuple(names)


def parse_history(source: str, source_name: str = "<history>") -> HistoryProgram:
    """Parse history source text into a validated :class:`HistoryProgram`."""
    text, metadata = _strip_comments(source)
    steps = []
    seen, terminated = set(), set()
    pos = _SPACE.match(text).end()
    while pos < len(text):
        step, pos = _parse_op(text, pos, source)
        pos = _SPACE.match(text, pos).end()
        if step.txn:
            if step.kind is OpKind.IL and step.txn in seen:
                raise SemanticError(
                    f"IL{step.txn} must be the first operation of transaction {step.txn}"
                )
            seen.add(step.txn)
            if step.kind in (OpKind.C, OpKind.A):
                terminated.add(step.txn)
        steps.append(step)
    return HistoryProgram(steps, source_name, metadata, tuple(sorted(seen - terminated)))


def _parse_op(text: str, start: int, source: str):
    """Read the operation at ``text[start]``: its name, subscript and optional
    argument list.  Returns the step and the offset just past the operation.
    Error offsets index ``source``, which has the line structure of ``text``."""
    m = _WORD.match(text, start)
    if not m:
        raise HistorySyntaxError("expected operation", start, text[start:start + 1], source)
    kind = _KIND_NAMES.get(m.group(1).upper())
    if kind is None:
        raise HistorySyntaxError("unknown operation", start, m.group(), source)
    paren = _OPEN.match(text, m.end())
    args, end = _arguments(text, paren.end() - 1, source) if paren else (None, m.end())
    return _build_step(kind, m.group(2), args, start, text[start:end], source), end


def _build_step(kind: OpKind, digits: str, args, offset: int, token: str, source: str) -> Step:
    """The step of the operation ``token`` at ``offset``: ``args`` holds its
    arguments as ``(text, offset)`` pairs, or is None without a list."""
    declarative = kind in DECLARATIVE_KINDS
    if declarative and digits:
        raise HistorySyntaxError("declarative operation takes no subscript", offset, token, source)
    if not declarative and not digits:
        raise HistorySyntaxError("missing transaction subscript", offset, token, source)
    step = Step(kind=kind, txn=int(digits) if digits else 0)
    if not declarative and step.txn < 1:
        raise HistorySyntaxError("transaction subscript must be positive", offset, token, source)

    if kind in (OpKind.C, OpKind.A):
        if args and (len(args) > 1 or args[0][0]):
            raise HistorySyntaxError("commit/abort takes no arguments", offset, token, source)
        return step
    if args is None:
        raise HistorySyntaxError("missing argument list", offset, token, source)
    usage, fewest, most = _SIGNATURES[kind]
    if not fewest <= len(args) <= most:
        raise HistorySyntaxError(f"{kind.value} takes {usage}", offset, token, source)
    first = args[0]
    second = args[1] if len(args) == 2 else None

    if kind is OpKind.PRED:
        step.pred_var = _var_name(first, source)
        text, at = second
        if len(text) >= 2 and text[0] == text[-1] == '"':
            text, at = text[1:-1], at + 1
        step.predicate = parse_predicate(text, at, source)
    elif kind is OpKind.MAP:
        step.row_var = _var_name(first, source)
        step.literal = _parse_int(second, source)
    elif kind is OpKind.IL:
        step.level = _level(*first, "IL", source)
    elif kind is OpKind.I:
        _parse_insert_args(step, first, second, source)
    elif kind is OpKind.PR:
        _parse_pr_args(step, first, second, source)
    elif kind is OpKind.SU:
        step.pred_var = _var_name(first, source)
        step.literal = _parse_int(second, source) if second else 1
    elif kind is OpKind.SS:
        step.pred_var = _var_name(first, source)
        aggregate, at = second or ("sum(recval)", offset)
        step.aggregate = _AGGREGATES.get(aggregate.replace(" ", "").lower())
        if step.aggregate is None:
            raise HistorySyntaxError("SS aggregate must be sum(recval) or count(*)", at, aggregate, source)
    else:  # R, RW, W, D: a row, then a value variable or (W only) an integer
        step.row_var = _var_name(first, source)
        if second and kind is OpKind.W and _INT.fullmatch(second[0]):
            step.literal = int(second[0])
        elif second:
            step.value_var = _var_name(second, source)
    return step


def _parse_insert_args(step: Step, first: tuple, second, source: str) -> None:
    head = _fields(first)
    step.row_var = _var_name(head[0], source)
    if len(head) == 1:
        if second:
            raise HistorySyntaxError("bare insert takes only a row variable", second[1], second[0], source)
        return
    columns = _schema_columns([col for col, _ in head[1:]])
    if not second:
        raise SemanticError("insert with columns requires a value list")
    values = tuple(_parse_int(field, source) for field in _fields(second))
    if len(values) != len(columns):
        raise SemanticError(
            f"insert column/value lists differ in length ({len(columns)} vs {len(values)})"
        )
    step.column_spec = columns
    step.value_spec = values


def _parse_pr_args(step: Step, first: tuple, second, source: str) -> None:
    fields = _fields(first)
    step.pred_var = _var_name(fields[0], source)
    # the row limit is the first field after the predicate that reads as one;
    # taking 1 when there is none rejects both that and an empty column list
    limit_at = next((i for i in range(1, len(fields))
                     if fields[i][0].lower() == ROW_LIMIT_ALL or _INT.fullmatch(fields[i][0])), 1)
    if limit_at == 1:
        raise HistorySyntaxError(f"PR takes {_SIGNATURES[OpKind.PR][0]}", first[1], first[0], source)
    columns = [col.replace(" ", "") for col, _ in fields[1:limit_at]]
    if columns == ["count(*)"]:
        step.aggregate = "count"
    else:
        step.column_spec = _schema_columns(columns)
    limit = fields[limit_at][0].lower()
    if limit != ROW_LIMIT_ALL and int(limit) < 1:
        raise SemanticError("PR row limit must be positive")
    step.row_limit = limit if limit == ROW_LIMIT_ALL else int(limit)
    rest = fields[limit_at + 1:]
    if len(rest) > 1:
        raise HistorySyntaxError("too many PR fields after row limit", rest[1][1], rest[1][0], source)
    if rest:
        step.row_var = _var_name(rest[0], source)
    if second:
        step.value_var = _var_name(second, source)


# --- rendering ---------------------------------------------------------------


def render_step(step: Step, bindings: Optional[dict] = None, compact: bool = False) -> str:
    """Render one step in canonical surface syntax.

    ``bindings`` maps row-variable names to reckeys; when given, row
    variables render as ``A=100`` (the resolved form used in output
    histories).  ``compact`` removes spaces so the text is a single token.
    """
    sep = "," if compact else ", "

    def row(name):
        if bindings and name in bindings:
            return f"{name}={bindings[name]}"
        return name

    k = step.kind
    txn = step.txn if step.txn else ""
    if k is OpKind.PRED:
        return f"PRED({step.pred_var}{sep}{render_predicate(step.predicate, compact)})"
    if k is OpKind.MAP:
        return f"MAP({step.row_var}{sep}{step.literal})"
    if k is OpKind.IL:
        return f"IL{txn}({step.level.name})"
    if k in (OpKind.C, OpKind.A):
        return f"{k.value}{txn}"
    if k in (OpKind.R, OpKind.RW, OpKind.W, OpKind.D):  # a row, then a value variable or W's literal
        args = row(step.row_var)
        if step.value_var:
            args += sep + step.value_var
        elif step.literal is not None:
            args += sep + str(step.literal)
        return f"{k.value}{txn}({args})"
    if k is OpKind.I:
        if step.column_spec:
            cols = ";".join((row(step.row_var),) + step.column_spec)
            vals = ";".join(str(v) for v in step.value_spec)
            return f"I{txn}({cols}{sep}{vals})"
        return f"I{txn}({row(step.row_var)})"
    if k is OpKind.PR:
        cols = "count(*)" if step.aggregate == "count" else ";".join(step.column_spec)
        fields = [step.pred_var, cols, str(step.row_limit)]
        if step.row_var:
            fields.append(row(step.row_var))
        args = ";".join(fields)
        if step.value_var:
            args += sep + step.value_var
        return f"PR{txn}({args})"
    if k is OpKind.SU:
        if step.literal != 1:
            return f"SU{txn}({step.pred_var}{sep}{step.literal})"
        return f"SU{txn}({step.pred_var})"
    if k is OpKind.SS:
        agg = "count(*)" if step.aggregate == "count" else "sum(recval)"
        return f"SS{txn}({step.pred_var}{sep}{agg})"
    raise ValueError(f"unrenderable step kind {k}")


def render_history(prog: HistoryProgram) -> str:
    """Render a program to canonical source text; parse(render(p)) == p."""
    lines = [f"#: {key}={value}" for key, value in prog.metadata.items()]
    lines.extend(render_step(s) for s in prog.steps)
    return "\n".join(lines)


def parse_record_op(text: str):
    """Parse the resolved op text of an output-history record.

    Returns a :class:`Step` whose row variables were substituted by
    ``name=reckey`` bindings, plus the binding map.  Inverse of
    ``render_step(step, bindings, compact=True)``.
    """
    bindings = {}

    def strip_binding(m):
        bindings[m.group(1)] = int(m.group(2))
        return m.group(1)

    # comparisons inside a predicate are not bindings
    plain = text if text[:4].upper() == "PRED" else _BINDING.sub(strip_binding, text)
    step, end = _parse_op(plain, 0, plain)
    if end != len(plain):
        raise HistorySyntaxError("expected a single operation", end, plain[end:], plain)
    return step, bindings
