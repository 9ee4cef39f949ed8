"""Correctness checks computed apart from the program under test.

Nothing here imports ``isoharness``.  The checks read the serialized output
history (the text ``serialize`` produced), the history text the benchmark
generated, the engine's final table and its lock events, and recompute what
each of them must be from first principles:

* the ANSI permitted-cell rule (:func:`permitted`),
* the canonical-row formula (:func:`canonical_row`),
* reads at RC and above see exactly the committed state plus the reader's own
  writes: item values, predicate key sets, cursor pages, counts and sums; and
  every write image starts from that state (:func:`replay`),
* the replay of committed write images over the canonical table equals the
  engine's final table (:func:`check_final_table`),
* strict two-phase locking over ``Engine.lock_events`` (:func:`check_strict_2pl`),
* the blocked-or-executed outcome of a history's intended conflicting pair
  (:func:`check_pair_outcome`).

Each check returns a list of problem strings; an empty list means it passed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

COLUMN_NS = (2, 3, 4, 5, 6, 50, 100)


# --------------------------------------------------------------- the rules


def permitted(cls: str, first_level: str) -> bool:
    """ANSI rule for a concurrent conflicting pair, both levels RC or above:
    only an item read followed by a write with the reader at RC, and a
    predicate read followed by a write with the reader at RC or RR, may run
    before the first transaction ends.  Every other pair must block."""
    if cls == "r_w":
        return first_level == "RC"
    if cls == "pr_w":
        return first_level in ("RC", "RR")
    return False


def canonical_row(i: int) -> dict:
    """Row i (1-based): reckey 100*i, recval 10000*i, kN = cN = (i-1) mod N."""
    row = {"reckey": 100 * i, "recval": 10000 * i}
    for n in COLUMN_NS:
        row[f"c{n}"] = row[f"k{n}"] = (i - 1) % n
    return row


_BASE_CACHE: Dict[int, Dict[int, dict]] = {}


def canonical_table(rows: int) -> Dict[int, dict]:
    """reckey -> row for the canonical table; shared, never mutate it."""
    table = _BASE_CACHE.get(rows)
    if table is None:
        table = {100 * i: canonical_row(i) for i in range(1, rows + 1)}
        _BASE_CACHE[rows] = table
    return table


_MATCH_CACHE: Dict[tuple, tuple] = {}


def _base_matches(rows: int, pred) -> tuple:
    """Keys of canonical rows satisfying ``pred``; cached per table size."""
    keys = _MATCH_CACHE.get((rows, pred))
    if keys is None:
        keys = tuple(k for k, row in canonical_table(rows).items() if holds(pred, row))
        _MATCH_CACHE[(rows, pred)] = keys
    return keys


# ----------------------------------------------------- predicates and input

_CMP = re.compile(r"^\s*([a-z]\w*)\s*(<=|>=|<>|=|<|>)\s*(-?\d+)\s*$")
_OPS = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<>": lambda a, b: a != b,
}


def parse_conjunction(text: str) -> Tuple[Tuple[str, str, int], ...]:
    """``k2=0 and k3<5`` -> ((k2, =, 0), (k3, <, 5)).  Conjunctions only."""
    out = []
    for part in re.split(r"\s+and\s+", text.strip()):
        m = _CMP.match(part)
        if not m:
            raise ValueError(f"unsupported predicate term {part!r}")
        out.append((m.group(1), m.group(2), int(m.group(3))))
    return tuple(out)


def holds(pred, row: dict) -> bool:
    return all(_OPS[op](row[col], value) for col, op, value in pred)


@dataclass
class InputFacts:
    """What the checks need from a generated history's text."""

    predicates: Dict[str, tuple]
    levels: Dict[int, str]


def read_input(text: str) -> InputFacts:
    predicates = {
        m.group(1): parse_conjunction(m.group(2))
        for m in re.finditer(r"PRED\s*\(\s*(\w+)\s*,\s*([^)]*)\)", text)
    }
    levels = {int(m.group(1)): m.group(2) for m in re.finditer(r"\bIL(\d+)\((\w+)\)", text)}
    return InputFacts(predicates, levels)


# ------------------------------------------------------- output histories


@dataclass
class Rec:
    seq: int
    submit: int
    op: str  # operation name: R, W, PR, ...
    txn: int
    args: str
    status: str  # OK, BLOCKED, RESUMED, ERROR=<code>, ABORTED_DEADLOCK, ...
    values: Optional[list] = None
    images: List[Tuple[Optional[dict], Optional[dict]]] = field(default_factory=list)

    def succeeded(self) -> bool:
        return self.status == "OK" or self.status.startswith("RESUMED=")


@dataclass
class Output:
    header: Dict[str, str]
    records: List[Rec]
    finals: Dict[int, str]


def _decode_image(text: str) -> Optional[dict]:
    if text == "ABSENT":
        return None
    row = {}
    for part in text.split(";"):
        col, _, num = part.partition(":")
        row[col] = int(num)
    return row


def _decode_values(text: str) -> list:
    if text == "-":
        return []
    out = []
    for part in text.split(","):
        nums = tuple(int(x) for x in part.split(":"))
        out.append(nums if len(nums) > 1 else nums[0])
    return out


_OP = re.compile(r"^([A-Z]+)(\d*)(?:\((.*)\))?$")


def read_output(text: str) -> Output:
    """Parse a serialized output history with this module's own reader."""
    header: Dict[str, str] = {}
    records: List[Rec] = []
    finals: Dict[int, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(":")
            value = value.strip()
            if key == "final":
                finals = {int(t): s for t, s in (p.split("=") for p in value.split())}
            else:
                header[key] = value
            continue
        parts = line.split(" ")
        m = _OP.match(parts[2])
        if not m:
            raise ValueError(f"unreadable op {parts[2]!r}")
        rec = Rec(int(parts[0]), int(parts[1]), m.group(1), int(m.group(2) or 0),
                  m.group(3) or "", parts[3])
        before = None
        for token in parts[4:]:
            key, _, payload = token.partition("=")
            if key == "VALUES":
                rec.values = _decode_values(payload)
            elif key == "BEFORE":
                before = payload
            elif key == "AFTER":
                rec.images.append((_decode_image(before), _decode_image(payload)))
                before = None
            else:
                raise ValueError(f"unknown field {token!r}")
        records.append(rec)
    return Output(header, records, finals)


def op_groups(out: Output) -> Dict[Tuple[int, int], List[Rec]]:
    """(txn, ordinal) -> records of that operation, in completion order.

    The ordinal counts a transaction's operations other than IL in the order
    the monitor submitted them, which is program order within a transaction.
    """
    by_submit: Dict[int, List[Rec]] = {}
    for rec in out.records:
        by_submit.setdefault(rec.submit, []).append(rec)
    groups = {}
    ordinals: Dict[int, int] = {}
    for submit in sorted(by_submit):
        recs = by_submit[submit]
        head = recs[0]
        if head.txn == 0 or head.op == "IL":
            continue
        n = ordinals.get(head.txn, 0)
        ordinals[head.txn] = n + 1
        groups[(head.txn, n)] = recs
    return groups


# ------------------------------------------------------------------ checks


def check_statuses(out: Output, expected_errors: Dict[Tuple[int, int], str],
                   finals: Dict[int, str]) -> List[str]:
    """Not stuck; every operation ends, and ends well unless it is one of
    the expected failures (a deadlock victim's abort, then the refusal of
    the victim's later steps); final transaction states as expected."""
    problems = []
    if out.header.get("stuck") == "yes":
        problems.append("history reported stuck")
    groups = op_groups(out)
    for key, recs in groups.items():
        end = recs[-1]
        statuses = [r.status for r in recs]
        want = expected_errors.get(key)
        if want is not None:
            if end.status != want:
                problems.append(f"T{key[0]} op {key[1]} ended {end.status}, expected {want}")
            continue
        ok = statuses == ["OK"] or (
            statuses == ["BLOCKED", end.status] and end.status == f"RESUMED={recs[0].seq}"
        )
        if not ok:
            problems.append(f"T{key[0]} op {key[1]} ({end.op}) records {statuses}")
    missing = set(expected_errors) - set(groups)
    if missing:
        problems.append(f"expected failing operations never ran: {sorted(missing)}")
    if out.finals != finals:
        problems.append(f"final states {out.finals}, expected {finals}")
    return problems


def check_pair_outcome(out: Output, first_txn: int, second: Tuple[int, int],
                       expect: str) -> List[str]:
    """EXECUTED: the second operation completed without blocking before the
    first transaction's commit.  BLOCKED: it was recorded BLOCKED and resumed
    only after that commit."""
    groups = op_groups(out)
    recs = groups.get(second)
    commit = next(
        (r for r in out.records if r.txn == first_txn and r.op == "C" and r.status == "OK"), None
    )
    if recs is None or commit is None:
        return [f"pair operation {second} or commit of T{first_txn} missing"]
    statuses = [r.status for r in recs]
    if expect == "EXECUTED":
        ok = statuses == ["OK"] and recs[0].seq < commit.seq
    else:
        ok = (len(recs) == 2 and recs[0].status == "BLOCKED"
              and recs[1].status.startswith("RESUMED=") and recs[1].seq > commit.seq)
    if ok:
        return []
    where = "before" if expect == "EXECUTED" else "then RESUMED after"
    return [f"expected {expect} {where} C{first_txn}, got {statuses}"]


class _State:
    """Committed table state overlaid on the canonical table, plus each
    transaction's own uncommitted changes.  ``None`` marks a deleted row."""

    def __init__(self, rows: int):
        self.base = canonical_table(rows)
        self.committed: Dict[int, Optional[dict]] = {}
        self.own: Dict[int, Dict[int, Optional[dict]]] = {}

    def visible(self, txn: int, key: int) -> Optional[dict]:
        own = self.own.get(txn, {})
        if key in own:
            return own[key]
        if key in self.committed:
            return self.committed[key]
        return self.base.get(key)

    def matching(self, txn: int, pred) -> List[int]:
        """Sorted keys of the rows visible to ``txn`` that satisfy ``pred``."""
        changed = set(self.committed) | set(self.own.get(txn, {}))
        keys = {k for k in _base_matches(len(self.base), pred) if k not in changed}
        for key in changed:
            row = self.visible(txn, key)
            if row is not None and holds(pred, row):
                keys.add(key)
        return sorted(keys)

    def end(self, txn: int, commit: bool) -> None:
        changes = self.own.pop(txn, {})
        if commit:
            self.committed.update(changes)

    def final(self) -> Dict[int, dict]:
        rows = {k: v for k, v in self.base.items() if k not in self.committed}
        rows.update({k: v for k, v in self.committed.items() if v is not None})
        return rows


def _key_of(args: str) -> Optional[int]:
    m = re.match(r"^\w+=(-?\d+)", args)
    return int(m.group(1)) if m else None


def replay(out: Output, rows: int, facts: InputFacts, problems: list) -> _State:
    """Walk the records in completion order, applying committed images, and
    check every read at RC or above and every write image against the state
    it should have seen: the committed state plus the transaction's own
    writes."""
    state = _State(rows)
    cursors: Dict[Tuple[int, str], int] = {}
    for rec in out.records:
        txn = rec.txn
        if rec.status == "ABORTED_DEADLOCK":
            state.end(txn, commit=False)
            continue
        if not rec.succeeded() or txn == 0:
            continue
        if rec.op in ("C", "A"):
            state.end(txn, commit=rec.op == "C")
            continue
        _check_read(rec, state, facts, cursors, problems)
        for before, after in rec.images:
            key = (after or before or {}).get("reckey")
            seen = state.visible(txn, key)
            if before != seen:
                problems.append(f"record {rec.seq}: before-image of {key} is {before}, visible row {seen}")
            _check_write(rec, before, after, facts, problems)
            state.own.setdefault(txn, {})[key] = after
    return state


def _check_write(rec: Rec, before, after, facts: InputFacts, problems: list) -> None:
    where = f"record {rec.seq} {rec.op}{rec.txn}({rec.args})"
    if rec.op == "W":
        _, _, source = rec.args.partition(",")
        if not source:  # W(A): recval += 1
            want = before["recval"] + 1
        elif re.fullmatch(r"-?\d+", source):
            want = int(source)
        else:  # written from a value variable; only the row's presence is checked
            want = None
        if after is None or (want is not None and after["recval"] != want):
            problems.append(f"{where}: wrote {after and after['recval']}, expected {want}")
    elif rec.op == "D":
        if before is None or after is not None:
            problems.append(f"{where}: delete images {before} -> {after}")
    elif rec.op == "I":
        head, _, vals = rec.args.partition(",")
        cols = head.split(";")[1:]
        given = dict(zip(cols, (int(v) for v in vals.split(";")))) if cols else {}
        if before is not None or after is None or any(after.get(c) != v for c, v in given.items()):
            problems.append(f"{where}: insert images {before} -> {after}")
    elif rec.op == "SU":
        var, _, delta = rec.args.partition(",")
        pred = facts.predicates.get(var)
        d = int(delta) if delta else 1
        if before is None or after is None or after["recval"] != before["recval"] + d \
                or (pred is not None and not holds(pred, before)):
            problems.append(f"{where}: set-update images {before} -> {after}")


def _check_read(rec: Rec, state: _State, facts: InputFacts, cursors: dict, problems: list) -> None:
    txn = rec.txn
    if facts.levels.get(txn, "RC") == "RU":
        return
    where = f"record {rec.seq} {rec.op}{txn}({rec.args})"
    if rec.op == "R":
        row = state.visible(txn, _key_of(rec.args))
        want = [row["recval"]] if row is not None else None
        if rec.values != want:
            problems.append(f"{where}: read {rec.values}, expected {want}")
    elif rec.op == "SS":
        var, _, agg = rec.args.partition(",")
        keys = state.matching(txn, facts.predicates[var])
        if agg.startswith("count"):
            want = len(keys)
        else:
            want = sum(state.visible(txn, k)["recval"] for k in keys)
        if rec.values != [want]:
            problems.append(f"{where}: got {rec.values}, expected [{want}]")
    elif rec.op == "PR":
        fields = rec.args.split(",")[0].split(";")
        var = fields[0]
        limit_at = next(i for i, f in enumerate(fields) if f == "all" or f.isdigit())
        columns, limit = fields[1:limit_at], fields[limit_at]
        keys = state.matching(txn, facts.predicates[var])
        if columns == ["count(*)"]:
            want = [len(keys)]
        else:
            position = cursors.get((txn, var), 0)
            keys = [k for k in keys if k > position]
            if limit != "all":
                keys = keys[: int(limit)]
            if columns == ["reckey"]:
                want = keys
            else:
                want = [(k,) + tuple(state.visible(txn, k)[c] for c in columns) for k in keys]
            if limit == "all":
                cursors.pop((txn, var), None)
            elif keys:
                cursors[(txn, var)] = keys[-1]
        if rec.values != want:
            problems.append(f"{where}: got {_brief(rec.values)}, expected {_brief(want)}")


def _brief(values) -> str:
    if values is None or len(values) <= 6:
        return str(values)
    return f"{len(values)} items {values[:3]}...{values[-2:]}"


def check_final_table(replayed: Dict[int, dict], final_rows: Dict[int, dict]) -> List[str]:
    """The engine's final table equals the canonical table with the images
    of committed transactions applied in commit order."""
    if replayed == final_rows:
        return []
    diff = sorted(k for k in set(replayed) | set(final_rows) if replayed.get(k) != final_rows.get(k))
    return [f"final table differs from the replay of committed images at reckeys {diff[:5]}"]


def check_strict_2pl(events) -> List[str]:
    """No lock acquired after the transaction released a long lock, and long
    locks released only at termination (or engine shutdown)."""
    problems = []
    released_long = set()
    for ev in events:
        if ev.action == "ACQUIRE":
            if ev.txn in released_long:
                problems.append(f"lock event {ev.seq}: T{ev.txn} acquired after releasing a long lock")
        elif ev.action == "RELEASE" and ev.duration.value == "LONG":
            if ev.reason not in ("TERMINATION", "SHUTDOWN"):
                problems.append(f"lock event {ev.seq}: T{ev.txn} released a long lock mid-transaction")
            released_long.add(ev.txn)
    return problems


def check_history(case, text: str, verdict: str, final_rows: Dict[int, dict], events) -> List[str]:
    """All checks for one judged history of a generated case."""
    facts = read_input(case.text)
    out = read_output(text)
    problems = []
    if verdict != "CONFORMS":
        problems.append(f"verdict {verdict}")
    problems += check_statuses(out, case.expected_errors, case.finals)
    if case.pair is not None:
        first_txn, second, expect = case.pair
        problems += check_pair_outcome(out, first_txn, second, expect)
    state = replay(out, case.rows, facts, problems)
    problems += check_final_table(state.final(), final_rows)
    problems += check_strict_2pl(events)
    return problems
