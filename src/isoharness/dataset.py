"""Canonical test table: deterministic construction and predicate evaluation.

The table ``T(reckey, recval, c2..c100, k2..k100)`` holds a multiple of 100
rows.  Row i (1-based) carries reckey 100*i, recval 10000*i, and
kN = cN = (i-1) mod N.  The kN columns are flagged as indexed, the cN columns
are not; index flags only influence the engine's incremental range locking,
there is no physical index structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator

from .notation import (
    PredicateExpr,
    SCHEMA_COLUMN_SUFFIXES,
    SCHEMA_COLUMNS,
)


class InvalidRowCount(ValueError):
    """Requested row count is not a positive multiple of 100."""


DEFAULT_ROW_COUNT = 200

#: Columns that carry an index flag by default (primary key plus kN).
DEFAULT_INDEXED_COLUMNS = frozenset(
    ("reckey",) + tuple(f"k{n}" for n in SCHEMA_COLUMN_SUFFIXES)
)


@dataclass
class Row:
    values: Dict[str, int]
    tombstone: bool = False

    @property
    def reckey(self) -> int:
        return self.values["reckey"]

    def copy(self) -> "Row":
        return Row(dict(self.values), self.tombstone)

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        return self.values == other.values and self.tombstone == other.tombstone


def initial_row(i: int) -> Row:
    """The i-th (1-based) row of the canonical table."""
    values = {"reckey": 100 * i, "recval": 10000 * i}
    for n in SCHEMA_COLUMN_SUFFIXES:
        values[f"k{n}"] = values[f"c{n}"] = (i - 1) % n
    return Row(values)


@dataclass
class CanonicalTable:
    rows: Dict[int, Row] = field(default_factory=dict)
    indexed_columns: set = field(default_factory=lambda: set(DEFAULT_INDEXED_COLUMNS))
    row_count: int = 0

    def keys_ascending(self) -> list:
        return sorted(self.rows)

    def scan(self) -> Iterator[Row]:
        """Live rows in ascending reckey order."""
        for key in self.keys_ascending():
            row = self.rows[key]
            if not row.tombstone:
                yield row

    def snapshot(self) -> Dict[int, Row]:
        """Deep copy of live rows, for before/after comparisons in tests."""
        return {k: r.copy() for k, r in self.rows.items() if not r.tombstone}


def build_canonical_table(row_count: int = DEFAULT_ROW_COUNT) -> CanonicalTable:
    if row_count <= 0 or row_count % 100 != 0:
        raise InvalidRowCount(f"row count must be a positive multiple of 100, got {row_count}")
    table = CanonicalTable(row_count=row_count)
    for i in range(1, row_count + 1):
        row = initial_row(i)
        table.rows[row.reckey] = row
    return table


def eval_predicate(row: Row, predicate: PredicateExpr) -> bool:
    """True iff the row satisfies the predicate; tombstoned rows never match."""
    if row.tombstone:
        return False
    return predicate.holds(row.values)


def dump_tsv(table: CanonicalTable) -> str:
    """Tab-separated dump with a header row in schema column order."""
    lines = ["\t".join(SCHEMA_COLUMNS)]
    for row in table.scan():
        lines.append("\t".join(str(row.values[c]) for c in SCHEMA_COLUMNS))
    return "\n".join(lines) + "\n"
