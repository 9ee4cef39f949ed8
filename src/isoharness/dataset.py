"""Canonical test table: deterministic construction and predicate evaluation.

The table ``T(reckey, recval, c2..c100, k2..k100)`` holds a multiple of 100
rows.  Row i (1-based) carries reckey 100*i, recval 10000*i, and
kN = cN = (i-1) mod N; the kN and cN columns differ only in name.  The only
index is the sorted list of reckeys, which incremental range locking follows
(``LockScope.TABLE`` locks as if there were none).

The kN/cN values repeat every 300 rows, so each row is a copy of one of 300
template rows, keyed in ``SCHEMA_COLUMNS`` order, with its reckey and recval set.
Tables of one size share these rows, built once; a table owns only its row
dict and key list, so a row changes only by a new one put in its place.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from .notation import SCHEMA_COLUMN_SUFFIXES, SCHEMA_COLUMNS

if TYPE_CHECKING:
    from .notation import PredicateExpr


class InvalidRowCount(ValueError):
    """Requested row count is not a positive multiple of 100."""


DEFAULT_ROW_COUNT = 200


@dataclass(slots=True)
class Row:
    values: Dict[str, int]
    tombstone: bool = False
    #: The row's image side as ``outhist.encode_image_side`` wrote it, once it
    #: has: a row is never changed once made, so the text stays its encoding.
    side_text: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def reckey(self) -> int:
        return self.values["reckey"]


def initial_row(i: int) -> Row:
    """The i-th (1-based) row of the canonical table."""
    mods = [(i - 1) % n for n in SCHEMA_COLUMN_SUFFIXES]  # the cN, then the kN
    return Row(dict(zip(SCHEMA_COLUMNS, [100 * i, 10000 * i] + mods + mods)))


@dataclass
class CanonicalTable:
    rows: Dict[int, Row]
    row_count: int
    #: Every key of ``rows``, tombstones included, in ascending order.  Keys
    #: are added and removed only through :meth:`put` and :meth:`drop`.
    keys: List[int]
    #: Bumped by every change to the rows, which is a :meth:`put` or a
    #: :meth:`drop`: a walk that finds it unchanged still stands.
    version: int = field(default=0, init=False, compare=False)

    def put(self, key: int, row: Row) -> None:
        if key not in self.rows:
            insort(self.keys, key)
        self.rows[key] = row
        self.version += 1

    def drop(self, key: int) -> None:
        if self.rows.pop(key, None) is not None:
            del self.keys[bisect_left(self.keys, key)]
            self.version += 1

    def keys_ascending(self) -> list:
        """The sorted key list itself, not a copy."""
        return self.keys

    def scan(self) -> Iterator[Row]:
        """Live rows in ascending reckey order."""
        for key in self.keys_ascending():
            row = self.rows[key]
            if not row.tombstone:
                yield row


#: Row i's kN/cN values are those of template (i-1) % _PERIOD (300 rows).
_PERIOD = math.lcm(*SCHEMA_COLUMN_SUFFIXES)
_TEMPLATES = tuple(initial_row(i).values for i in range(1, _PERIOD + 1))


@functools.lru_cache(maxsize=4)
def _canonical_rows(row_count: int) -> tuple:
    """The canonical ``Row`` objects by reckey, and the sorted reckeys: built
    once per row count and shared by every table of that size."""
    rows = {}
    for i in range(1, row_count + 1):
        values = _TEMPLATES[(i - 1) % _PERIOD].copy()
        values["reckey"] = 100 * i
        values["recval"] = 10000 * i
        rows[100 * i] = Row(values)
    return rows, list(rows)


def check_row_count(row_count: int) -> int:
    """``row_count``, if it is a positive multiple of 100."""
    if row_count <= 0 or row_count % 100 != 0:
        raise InvalidRowCount(f"row count must be a positive multiple of 100, got {row_count}")
    return row_count


def build_canonical_table(row_count: int = DEFAULT_ROW_COUNT) -> CanonicalTable:
    """A fresh table over the shared canonical rows, which nothing may edit:
    the engine writes by putting a new ``Row``."""
    rows, keys = _canonical_rows(check_row_count(row_count))
    return CanonicalTable(rows=rows.copy(), row_count=row_count, keys=keys.copy())


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
