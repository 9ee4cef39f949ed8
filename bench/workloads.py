"""Seeded corpora for the benchmark's workloads.

Each workload is one cycle of generated histories, repeated until the run's
time is up.  The seed picks predicate constants, rows, level pairs, which
transactions roll back and the order of the cycle; it never changes how many
histories of each template a cycle holds, so the work in a cycle is the same
for every seed.  The program under test sees only the history text.

Every template is chosen so that the reference engine must judge it
CONFORMS.  Shapes that today trip known analyzer or monitor faults are left
out: a deadlock whose victim is an earlier waiter, a blocked operation that
also forms a permitted pair with the blocker, a cursor read that stops before
the end of its predicate in incremental scope, and any operation slow enough
to approach the per-operation timeout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from checks import permitted

LEVELS = ("RC", "RR", "SR")


@dataclass
class Case:
    """One generated history and what the checks expect of it."""

    name: str
    kind: str  # template name
    text: str
    rows: int
    lock_scope: str  # "predicate" or "incremental"
    finals: Dict[int, str]
    # (first txn, (second txn, ordinal of its op), "EXECUTED" | "BLOCKED")
    pair: Optional[Tuple[int, Tuple[int, int], str]] = None
    # (txn, ordinal) -> final status of an operation that is expected to fail
    expected_errors: Dict[Tuple[int, int], str] = field(default_factory=dict)


@dataclass
class Workload:
    cases: List[Case]  # one cycle, in run order
    warmup: List[Case]  # untimed histories run during set-up, seed-independent in cost


def _finals(t1_commits: bool, t2_commits: bool) -> Dict[int, str]:
    return {1: "COMMITTED" if t1_commits else "ABORTED", 2: "COMMITTED" if t2_commits else "ABORTED"}


# ------------------------------------------------------------------ matrix


def matrix(seed: int, generate_matrix, variants, render_history) -> Workload:
    """The conflict-matrix campaign with every predicate variant: 99
    histories on the 200-row table, predicate scope, in a seeded order."""
    cases = []
    for prog in generate_matrix(variants=variants):
        meta = prog.metadata
        cls, l1 = meta["class"], meta["l1"]
        expect = "EXECUTED" if permitted(cls, l1) else "BLOCKED"
        cases.append(Case(
            name=prog.source_name, kind=cls, text=render_history(prog) + "\n",
            rows=200, lock_scope="predicate", finals=_finals(True, True),
            pair=(1, (2, 0), expect),
        ))
    warmup = [next(c for c in cases if c.kind == cls) for cls in ("w_w", "w_r", "r_w", "w_pr", "pr_w")]
    random.Random(seed).shuffle(cases)
    return Workload(cases, warmup)


# -------------------------------------------------------------------- scan

SCAN_ROWS = 2000
SCAN_PAGE = 100


def _scan_case(rng: random.Random, n: int, shape: str, write: str, l1: str) -> Case:
    """T1 reads one predicate five ways (a key drain, a value cursor fetched
    in pages then drained, count(*), and an SS sum); T2 inserts or deletes
    one row inside the predicate, after T1's reads (pr_w) or before them
    (w_pr)."""
    l2 = rng.choice(LEVELS)
    a, b = rng.randrange(2), rng.randrange(3)  # k2=a and k3=b: 1 row in 6
    expr = f"k2={a} and k3={b}"
    decls = [f"PRED(P{v}, {expr})" for v in range(1, 5)]
    if write == "insert":
        key = 100 * rng.randrange(1, SCAN_ROWS) + 50
        op = f"I2(N;reckey;recval;k2;k3, {key};{rng.randrange(1, 10**6)};{a};{b})"
    else:
        i = 6 * rng.randrange(SCAN_ROWS // 6) + (3 * a + 4 * b) % 6 + 1  # (i-1) = a mod 2, b mod 3
        decls.append(f"MAP(D, {100 * i})")
        op = "D2(D)"
    reads = (
        f"PR1(P1;reckey;all) PR1(P2;recval;{SCAN_PAGE}) PR1(P2;recval;{SCAN_PAGE})"
        f" PR1(P2;recval;all) PR1(P3;count(*);all) SS1(P4, sum(recval))"
    )
    body = f"{reads} {op}" if shape == "pr_w" else f"{op} {reads}"
    text = " ".join(decls + [f"IL1({l1}) IL2({l2})", body, "C1 C2"])
    if shape == "pr_w":
        pair = (1, (2, 0), "EXECUTED" if permitted("pr_w", l1) else "BLOCKED")
    else:
        pair = (2, (1, 0), "BLOCKED")
    name = f"scan{n:02d}_{shape}_{write}_{l1}_{l2}"
    return Case(name, f"{shape}_{write}", text + "\n", SCAN_ROWS, "predicate", _finals(True, True), pair)


def scan(seed: int) -> Workload:
    """Predicate reads over 2 000 rows, predicate scope: 12 histories, each
    of the four shapes once with T1 at each of RC, RR and SR."""
    rng = random.Random(seed)
    cases = []
    for shape in ("pr_w", "w_pr"):
        for write in ("insert", "delete"):
            for l1 in LEVELS:
                cases.append(_scan_case(rng, len(cases), shape, write, l1))
    warmup = [_scan_case(random.Random(0), 99, "pr_w", "insert", "RC")]
    rng.shuffle(cases)
    return Workload(cases, warmup)


# -------------------------------------------------------------- contention

CONTENTION_ROWS = 1000


def _rows_where(rng: random.Random, count: int, pred) -> List[int]:
    """``count`` distinct canonical reckeys whose row index satisfies pred."""
    return rng.sample([100 * (i + 1) for i in range(CONTENTION_ROWS) if pred(i)], count)


def _contention_case(rng: random.Random, n: int, kind: str, l1: str, l2: str,
                     t1_commits: bool, t2_commits: bool) -> Case:
    """T1 runs one set update over k3=a (about 333 rows, each under a long
    exclusive lock); T2 reads and writes beside it.

    * ``su_first``: T2 reads, inserts and deletes outside the set, drains a
      predicate that crosses it and then writes a row inside it; it blocks
      on the first of those until T1 ends.
    * ``deadlock``: T2 writes a row inside the set, so the set update blocks
      there; T2 then writes a row the update already holds, closing the
      cycle.  T2 is the younger and the requester, so it is the victim and
      its later steps are refused.
    * ``sr_reader``: T2 at SR drains a predicate (long range locks over every
      key) and reads a row inside the set before the update, which blocks
      until T2 ends; T2 meanwhile writes and inserts outside the set.
    * ``rc_reader``: T2 at RC or RR drains a predicate and reads a row
      outside the set; the update runs beside it, and T2's later write
      inside the set blocks until T1 ends.
    """
    a, b = rng.randrange(3), rng.randrange(5)
    in_s = lambda i: i % 3 == a  # row index i is reckey/100 - 1
    out_s = lambda i: i % 3 != a
    delta = rng.randrange(1, 100)
    end1 = "C1" if t1_commits else "A1"
    end2 = "C2" if t2_commits else "A2"
    new_key = 100 * rng.randrange(1, CONTENTION_ROWS) + 50
    insert = (f"I2(N;reckey;recval;k3;k5, {new_key};{rng.randrange(1, 10**6)};"
              f"{rng.randrange(3)};{b})")
    decls = [f"PRED(S, k3={a})", f"PRED(P, k5={b})"]
    errors: Dict[Tuple[int, int], str] = {}
    if kind == "su_first":
        (ka, kd), (kb,) = _rows_where(rng, 2, out_s), _rows_where(rng, 1, in_s)
        decls += [f"MAP(A, {ka})", f"MAP(B, {kb})", f"MAP(D, {kd})"]
        body = (f"SU1(S, {delta}) R2(A, X) {insert} D2(D) PR2(P;recval;all)"
                f" W2(B, {rng.randrange(10**6)}) {end1} {end2}")
    elif kind == "deadlock":
        (ka,) = _rows_where(rng, 1, out_s)
        # R sits in the upper half of the set, Q below it: the update holds
        # Q by the time it parks on R.
        s_keys = sorted(100 * (i + 1) for i in range(CONTENTION_ROWS) if in_s(i))
        half = len(s_keys) // 2
        kr = rng.choice(s_keys[half:])
        kq = rng.choice(s_keys[: half // 2])
        decls += [f"MAP(A, {ka})", f"MAP(R, {kr})", f"MAP(Q, {kq})"]
        body = (f"R2(A, X) W2(R, {rng.randrange(10**6)}) SU1(S, {delta})"
                f" W2(Q, {rng.randrange(10**6)}) PR2(P;recval;all) {end2} {end1}")
        errors = {(2, 2): "ABORTED_DEADLOCK", (2, 3): "ERROR=UnknownTxn", (2, 4): "ERROR=UnknownTxn"}
        t2_commits = False
    elif kind == "sr_reader":
        (ka,), (kb,) = _rows_where(rng, 1, in_s), _rows_where(rng, 1, out_s)
        decls += [f"MAP(A, {ka})", f"MAP(B, {kb})"]
        body = (f"PR2(P;recval;all) R2(A, X) SU1(S, {delta}) W2(B, {rng.randrange(10**6)})"
                f" {insert} {end2} {end1}")
    else:  # rc_reader
        (ka,), (kb,) = _rows_where(rng, 1, out_s), _rows_where(rng, 1, in_s)
        decls += [f"MAP(A, {ka})", f"MAP(B, {kb})"]
        body = (f"PR2(P;recval;all) R2(A, X) SU1(S, {delta}) W2(B, {rng.randrange(10**6)})"
                f" {end1} {end2}")
    text = " ".join(decls + [f"IL1({l1}) IL2({l2})", body])
    name = f"contention{n:02d}_{kind}_{l1}_{l2}_{end1}_{end2}"
    return Case(name, kind, text + "\n", CONTENTION_ROWS, "incremental",
                _finals(t1_commits, t2_commits), expected_errors=errors)


CONTENTION_MIX = (("su_first", 3), ("deadlock", 3), ("sr_reader", 3), ("rc_reader", 3))
ROLLBACK_SHARE = 4  # one transaction in four of each side rolls back


def contention(seed: int) -> Workload:
    rng = random.Random(seed)
    plan = []
    for kind, count in CONTENTION_MIX:
        for j in range(count):
            l1 = LEVELS[j % 3]
            l2 = "SR" if kind == "sr_reader" else rng.choice(("RC", "RR") if kind == "rc_reader" else LEVELS)
            plan.append((kind, l1, l2))
    total = len(plan)
    aborts1 = set(rng.sample(range(total), total // ROLLBACK_SHARE))
    aborts2 = set(rng.sample(range(total), total // ROLLBACK_SHARE))
    cases = [
        _contention_case(rng, i, kind, l1, l2, i not in aborts1, i not in aborts2)
        for i, (kind, l1, l2) in enumerate(plan)
    ]
    warm = random.Random(0)
    warmup = [_contention_case(warm, 99, kind, "RC", "SR" if kind == "sr_reader" else "RC", True, True)
              for kind, _ in CONTENTION_MIX]
    rng.shuffle(cases)
    return Workload(cases, warmup)
