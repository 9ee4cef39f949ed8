"""History notation: parsing and rendering of scripted transaction histories.

A history is a whitespace-separated sequence of operation tokens such as

    PRED(P, k2=1 and k3<2) IL1(SR) PR1(P;recval;1;A, X) C1

Operation names are case-insensitive and carry the transaction subscript as
trailing decimal digits (``W1``, ``PR2``).  Declarative operations (``PRED``,
``MAP``) have no subscript.  ``#`` starts a line comment; comment lines of the
form ``#: key=value`` carry program metadata (used by the generator to tag a
history with its intended conflict class).
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterable, Optional, Union


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

_REL_OPS = ("<=", ">=", "<>", "=", "<", ">")

#: The operators but "=", which a comparison compiles to an inline ``==``.
_REL_FUNCS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge,
              "<>": operator.ne}


# And/Or fold their items' tests into nested binary closures: a generator
# under all() or any() costs several times more per row.
def _both(f, g):
    return lambda v: f(v) and g(v)


def _either(f, g):
    return lambda v: f(v) or g(v)


@dataclass(frozen=True)
class Comparison:
    column: str
    op: RelOp
    value: int

    @functools.cached_property
    def test(self):
        """``holds`` compiled once per predicate object."""
        col, k = self.column, self.value
        if self.op == "=":
            return lambda v: v[col] == k
        rel = _REL_FUNCS[self.op]
        return lambda v: rel(v[col], k)

    def holds(self, row_values) -> bool:
        return self.test(row_values)


@dataclass(frozen=True)
class And:
    items: tuple

    @functools.cached_property
    def test(self):
        if not self.items:
            return lambda v: True
        return functools.reduce(_both, (item.test for item in self.items))

    def holds(self, row_values) -> bool:
        return self.test(row_values)


@dataclass(frozen=True)
class Or:
    items: tuple

    @functools.cached_property
    def test(self):
        if not self.items:
            return lambda v: False
        return functools.reduce(_either, (item.test for item in self.items))

    def holds(self, row_values) -> bool:
        return self.test(row_values)


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


# --- predicate expressions -------------------------------------------------

_PRED_TOKEN = re.compile(r"\s*(\(|\)|<=|>=|<>|=|<|>|-?\d+|[A-Za-z_][A-Za-z_0-9]*)")


def _tokenize_predicate(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _PRED_TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise HistorySyntaxError("bad predicate token", pos, rest.split()[0], text)
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_predicate(text: str) -> PredicateExpr:
    """Parse a boolean expression over schema columns.

    ``and`` binds tighter than ``or``; parentheses override.  Comparison
    operators: = < > <= >= <>.  Raises :class:`HistorySyntaxError` on
    malformed input and :class:`UnknownColumn` for non-schema columns.
    """
    tokens = _tokenize_predicate(text)
    if not tokens:
        raise HistorySyntaxError("empty predicate", 0, text, text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_or():
        items = [parse_and()]
        while peek() is not None and peek().lower() == "or":
            take()
            items.append(parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and():
        items = [parse_factor()]
        while peek() is not None and peek().lower() == "and":
            take()
            items.append(parse_factor())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_factor():
        tok = peek()
        if tok == "(":
            take()
            inner = parse_or()
            if take() != ")":
                raise HistorySyntaxError("expected ')'", 0, text, text)
            return inner
        return parse_comparison()

    def parse_comparison():
        col = take()
        if col is None or not col[0].isalpha():
            raise HistorySyntaxError("expected column name", 0, str(col), text)
        if col not in _SCHEMA_COLUMN_SET:
            raise UnknownColumn(col)
        op = take()
        if op not in _REL_OPS:
            raise HistorySyntaxError("expected relational operator", 0, str(op), text)
        num = take()
        try:
            value = int(num)
        except (TypeError, ValueError):
            raise HistorySyntaxError("expected integer constant", 0, str(num), text)
        return Comparison(col, op, value)

    expr = parse_or()
    if pos != len(tokens):
        raise HistorySyntaxError("trailing predicate tokens", 0, tokens[pos], text)
    return expr


def render_predicate(expr: PredicateExpr, compact: bool = False) -> str:
    """Render a predicate canonically; ``compact`` produces a space-free form
    (each comparison parenthesized) safe to embed in output-history records."""
    if isinstance(expr, Comparison):
        body = f"{expr.column}{expr.op}{expr.value}"
        return f"({body})" if compact else body
    sep_and = "and" if compact else " and "
    sep_or = "or" if compact else " or "
    if isinstance(expr, And):
        parts = []
        for item in expr.items:
            text = render_predicate(item, compact)
            if isinstance(item, Or):
                text = f"({text})"
            parts.append(text)
        return sep_and.join(parts)
    parts = []
    for item in expr.items:
        text = render_predicate(item, compact)
        if isinstance(item, (And, Or)) and not compact:
            text = f"({text})"
        elif isinstance(item, Or):
            text = f"({text})"
        parts.append(text)
    return sep_or.join(parts)


# --- history surface grammar -----------------------------------------------

_WORD = re.compile(r"([A-Za-z]+)(\d*)")

_KIND_NAMES = {k.value: k for k in OpKind}


def _split_top_level(text: str, sep: str) -> list:
    """Split on ``sep`` outside parentheses and double quotes."""
    parts = []
    depth = 0
    quoted = False
    cur = []
    for ch in text:
        if ch == '"':
            quoted = not quoted
            cur.append(ch)
        elif quoted:
            cur.append(ch)
        elif ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            cur.append(ch)
        elif ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _strip_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    return text


def _strip_comments(source: str):
    """Remove # comments, collecting ``#: key=value`` metadata lines.

    Comment characters are replaced by spaces so offsets into the cleaned
    text remain valid offsets into the original source.
    """
    metadata = {}
    chars = list(source)
    for m in re.finditer(r"#[^\n]*", source):
        comment = m.group(0)
        meta = re.match(r"#:\s*([A-Za-z_][\w-]*)\s*=\s*(.*?)\s*$", comment)
        if meta:
            metadata[meta.group(1)] = meta.group(2)
        for i in range(m.start(), m.end()):
            chars[i] = " "
    return "".join(chars), metadata


def _parse_int(text: str, offset: int, source: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise HistorySyntaxError("expected integer", offset, text.strip(), source)


_VAR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


def _var_name(text: str, offset: int, source: str) -> str:
    name = text.strip()
    if not _VAR_NAME.match(name):
        raise HistorySyntaxError("expected variable name", offset, name, source)
    return name


def _value_arg(step: Step, text: str, offset: int, source: str) -> None:
    """A write-source argument: integer literal or value-variable name."""
    text = text.strip()
    if re.fullmatch(r"-?\d+", text):
        step.literal = int(text)
    else:
        step.value_var = _var_name(text, offset, source)


def parse_history(source: str, source_name: str = "<history>") -> HistoryProgram:
    """Parse history source text into a validated :class:`HistoryProgram`."""
    cleaned, metadata = _strip_comments(source)
    steps = []
    pos = 0
    n = len(cleaned)
    while True:
        while pos < n and cleaned[pos].isspace():
            pos += 1
        if pos >= n:
            break
        start = pos
        m = _WORD.match(cleaned, pos)
        if not m:
            raise HistorySyntaxError("expected operation", pos, cleaned[pos], source)
        name, digits = m.group(1).upper(), m.group(2)
        if name not in _KIND_NAMES:
            raise HistorySyntaxError("unknown operation", start, m.group(0), source)
        kind = _KIND_NAMES[name]
        pos = m.end()
        args_text = None
        # optional whitespace before the argument list (paper writes "PRED (P, ...)")
        look = pos
        while look < n and cleaned[look] in " \t":
            look += 1
        if look < n and cleaned[look] == "(":
            depth = 0
            quoted = False
            for j in range(look, n):
                ch = cleaned[j]
                if ch == '"':
                    quoted = not quoted
                elif not quoted and ch == "(":
                    depth += 1
                elif not quoted and ch == ")":
                    depth -= 1
                    if depth == 0:
                        args_text = cleaned[look + 1 : j]
                        pos = j + 1
                        break
            else:
                raise HistorySyntaxError("unbalanced '('", look, cleaned[look:look + 8], source)
        steps.append(_build_step(kind, digits, args_text, start, source))
    prog = HistoryProgram(steps=steps, source_name=source_name, metadata=metadata)
    _validate_program(prog, source)
    return prog


def _build_step(kind: OpKind, digits: str, args_text, offset: int, source: str) -> Step:
    declarative = kind in DECLARATIVE_KINDS
    if declarative and digits:
        raise HistorySyntaxError("declarative operation takes no subscript", offset, digits, source)
    if not declarative and not digits:
        raise HistorySyntaxError("missing transaction subscript", offset, kind.value, source)
    step = Step(kind=kind, txn=int(digits) if digits else 0)
    if not declarative and step.txn < 1:
        raise HistorySyntaxError("transaction subscript must be positive", offset, digits, source)

    if kind in (OpKind.C, OpKind.A):
        if args_text not in (None, ""):
            raise HistorySyntaxError("commit/abort takes no arguments", offset, args_text, source)
        return step
    if args_text is None:
        raise HistorySyntaxError("missing argument list", offset, kind.value, source)
    args = [a.strip() for a in _split_top_level(args_text, ",")]

    if kind is OpKind.PRED:
        if len(args) != 2:
            raise HistorySyntaxError("PRED takes (var, expression)", offset, args_text, source)
        step.pred_var = _var_name(args[0], offset, source)
        step.predicate = parse_predicate(_strip_quotes(args[1]))
    elif kind is OpKind.MAP:
        if len(args) != 2:
            raise HistorySyntaxError("MAP takes (var, reckey)", offset, args_text, source)
        step.row_var = _var_name(args[0], offset, source)
        step.literal = _parse_int(args[1], offset, source)
    elif kind is OpKind.IL:
        if len(args) != 1 or args[0].upper() not in IsolationLevel.__members__:
            raise HistorySyntaxError("IL takes one of RU/RC/RR/SR", offset, args_text, source)
        step.level = IsolationLevel[args[0].upper()]
    elif kind in (OpKind.R, OpKind.RW):
        if len(args) not in (1, 2):
            raise HistorySyntaxError(f"{kind.value} takes (row[, var])", offset, args_text, source)
        step.row_var = _var_name(args[0], offset, source)
        if len(args) == 2:
            step.value_var = _var_name(args[1], offset, source)
    elif kind is OpKind.W:
        if len(args) not in (1, 2):
            raise HistorySyntaxError("W takes (row[, value])", offset, args_text, source)
        step.row_var = _var_name(args[0], offset, source)
        if len(args) == 2:
            _value_arg(step, args[1], offset, source)
    elif kind is OpKind.D:
        if len(args) != 1:
            raise HistorySyntaxError("D takes (row)", offset, args_text, source)
        step.row_var = _var_name(args[0], offset, source)
    elif kind is OpKind.I:
        _parse_insert_args(step, args, offset, source)
    elif kind is OpKind.PR:
        _parse_pr_args(step, args, offset, source)
    elif kind is OpKind.SU:
        if len(args) not in (1, 2):
            raise HistorySyntaxError("SU takes (pred[, delta])", offset, args_text, source)
        step.pred_var = _var_name(args[0], offset, source)
        step.literal = _parse_int(args[1], offset, source) if len(args) == 2 else 1
    elif kind is OpKind.SS:
        if len(args) not in (1, 2):
            raise HistorySyntaxError("SS takes (pred[, aggregate])", offset, args_text, source)
        step.pred_var = _var_name(args[0], offset, source)
        agg = args[1].replace(" ", "").lower() if len(args) == 2 else "sum(recval)"
        if agg == "sum(recval)":
            step.aggregate = "sum"
        elif agg == "count(*)":
            step.aggregate = "count"
        else:
            raise HistorySyntaxError("SS aggregate must be sum(recval) or count(*)", offset, args[1], source)
    return step


def _parse_insert_args(step: Step, args, offset: int, source: str) -> None:
    head = [p.strip() for p in args[0].split(";")]
    step.row_var = _var_name(head[0], offset, source)
    if len(head) > 1:
        columns = tuple(head[1:])
        for col in columns:
            if col not in _SCHEMA_COLUMN_SET:
                raise UnknownColumn(col)
        if len(args) != 2:
            raise SemanticError("insert with columns requires a value list")
        values = tuple(_parse_int(v, offset, source) for v in args[1].split(";"))
        if len(values) != len(columns):
            raise SemanticError(
                f"insert column/value lists differ in length ({len(columns)} vs {len(values)})"
            )
        step.column_spec = columns
        step.value_spec = values
    elif len(args) != 1:
        raise HistorySyntaxError("bare insert takes only a row variable", offset, ",".join(args), source)


def _parse_pr_args(step: Step, args, offset: int, source: str) -> None:
    fields = [p.strip() for p in args[0].split(";")]
    if len(fields) < 3:
        raise HistorySyntaxError("PR takes (pred;columns;limit[;row][, var])", offset, ";".join(fields), source)
    step.pred_var = _var_name(fields[0], offset, source)
    limit_idx = None
    for i, f in enumerate(fields[1:], start=1):
        if f.lower() == ROW_LIMIT_ALL or re.fullmatch(r"\d+", f):
            limit_idx = i
            break
    if limit_idx is None or limit_idx == 1:
        raise HistorySyntaxError("PR needs at least one column before the row limit", offset, ";".join(fields), source)
    columns = [c.replace(" ", "") for c in fields[1:limit_idx]]
    if columns == ["count(*)"]:
        step.aggregate = "count"
    else:
        for col in columns:
            if col not in _SCHEMA_COLUMN_SET:
                raise UnknownColumn(col)
        step.column_spec = tuple(columns)
    limit = fields[limit_idx].lower()
    if limit == ROW_LIMIT_ALL:
        step.row_limit = ROW_LIMIT_ALL
    else:
        step.row_limit = int(limit)
        if step.row_limit < 1:
            raise SemanticError("PR row limit must be positive")
    rest = fields[limit_idx + 1 :]
    if len(rest) > 1:
        raise HistorySyntaxError("too many PR fields after row limit", offset, ";".join(rest), source)
    if rest:
        step.row_var = _var_name(rest[0], offset, source)
    if len(args) > 2:
        raise HistorySyntaxError("too many PR arguments", offset, ",".join(args), source)
    if len(args) == 2:
        step.value_var = _var_name(args[1], offset, source)


def _validate_program(prog: HistoryProgram, source: str) -> None:
    first_step_seen = set()
    terminated = set()
    txns = set()
    for step in prog.steps:
        if step.txn:
            txns.add(step.txn)
            if step.kind is OpKind.IL and step.txn in first_step_seen:
                raise SemanticError(
                    f"IL{step.txn} must be the first operation of transaction {step.txn}"
                )
            first_step_seen.add(step.txn)
            if step.kind in (OpKind.C, OpKind.A):
                terminated.add(step.txn)
    prog.unterminated = tuple(sorted(txns - terminated))


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
    if k in (OpKind.R, OpKind.RW):
        args = row(step.row_var)
        if step.value_var:
            args += sep + step.value_var
        return f"{k.value}{txn}({args})"
    if k is OpKind.W:
        args = row(step.row_var)
        if step.value_var:
            args += sep + step.value_var
        elif step.literal is not None:
            args += sep + str(step.literal)
        return f"W{txn}({args})"
    if k is OpKind.D:
        return f"D{txn}({row(step.row_var)})"
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

    if text[:4].upper() == "PRED":
        plain = text  # comparisons inside the predicate are not bindings
    else:
        plain = re.sub(r"([A-Za-z][A-Za-z0-9_]*)=(-?\d+)(?=[,;)])", strip_binding, text)
    prog = parse_history(plain)
    if len(prog.steps) != 1:
        raise HistorySyntaxError("expected a single operation", 0, text, text)
    return prog.steps[0], bindings
