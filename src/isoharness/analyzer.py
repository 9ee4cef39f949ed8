"""Analysis of output histories for isolation violations and over-blocking.

Conflict classes: w_w, w_r, r_w (item/item), w_pr and pr_w (item write vs
predicate read).  A "write" is any of W, RW, I, D, or a set-update row; a
predicate read is PR or a set select.  A predicate pairs with a write when
the write's before- or after-image satisfies it.

A concurrent pair is one whose second operation completed before the first
operation's transaction terminated (completion order of the records).  With
both levels at RC or above, the only concurrent pairs permitted are r_w with
the reader at RC, and pr_w with the predicate reader at RC or RR; everything
else is a violation when it executes concurrently.  A blocked second
operation in a permitted pair that never got through before the first
transaction terminated is the over-restrictive case, unless a non-permitted
pair with the same first transaction explains the block.  RU transactions are
read only: their reads pair with nothing, and any successful RU write is
itself a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .notation import (
    IsolationLevel,
    OpKind,
    Step,
    WRITE_KINDS,
    parse_record_op,
)
from .outhist import (
    OutputHistory,
    OutputRecord,
    STATUS_BLOCKED,
    STATUS_DEADLOCK,
)

if TYPE_CHECKING:
    from .notation import PredicateExpr


class AnalyzerError(Exception):
    pass


class UnknownLevel(AnalyzerError):
    """A transaction in a pair has no isolation level in the header."""


class MissingImages(AnalyzerError):
    """Predicate membership undecidable: the write never produced images."""


class Verdict(Enum):
    CONFORMS = "CONFORMS"
    VIOLATION = "VIOLATION"
    OVER_RESTRICTIVE = "OVER_RESTRICTIVE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class OpView:
    """One executed operation, reassembled from its record group."""

    submit_seq: int
    txn: int
    step: Step
    reckey: Optional[int]  # resolved item key, if any
    blocked: Optional[OutputRecord]
    completion: Optional[OutputRecord]

    @property
    def succeeded(self) -> bool:
        return self.completion is not None and self.completion.succeeded()

    @cached_property
    def write_keys(self) -> FrozenSet[int]:
        if self.step.kind not in WRITE_KINDS:
            return frozenset()
        if self.completion is not None and self.completion.images:
            return frozenset(img.reckey for img in self.completion.images)
        return frozenset() if self.reckey is None else frozenset((self.reckey,))

    def write_value_dicts(self) -> Iterator[dict]:
        """The values of each image side, decoded only as they are consumed;
        a write that succeeded with no images (an empty set update) has none."""
        if not self.succeeded:
            raise MissingImages(f"op {self.submit_seq} did not succeed, so it has no images")
        for img in self.completion.images:
            yield from img.value_dicts()


@dataclass
class ConflictPair:
    cls: str
    first: OpView
    second: OpView
    resource: str
    concurrent: bool
    second_blocked: bool
    first_end_seq: Optional[int]
    membership_known: bool = True

    def describe(self) -> str:
        state = "executed" if self.concurrent else ("blocked" if self.second_blocked else "after-commit")
        return (
            f"{self.cls} T{self.first.txn}:{self.first.completion.op_text if self.first.completion else '?'}"
            f" / T{self.second.txn}:"
            f"{(self.second.completion or self.second.blocked).op_text}"
            f" on {self.resource} [{state}]"
        )


@dataclass
class Judgment:
    pairs: List[ConflictPair] = field(default_factory=list)
    violations: List[ConflictPair] = field(default_factory=list)
    over_restrictive: List[ConflictPair] = field(default_factory=list)
    ru_writes: List[OutputRecord] = field(default_factory=list)
    inconclusive: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> Verdict:
        if self.violations or self.ru_writes:
            return Verdict.VIOLATION
        if self.over_restrictive:
            return Verdict.OVER_RESTRICTIVE
        if self.inconclusive:
            return Verdict.INCONCLUSIVE
        return Verdict.CONFORMS


def _collect_ops(oh: OutputHistory) -> Tuple[List[OpView], Dict[str, PredicateExpr], Dict[int, int]]:
    """Op views, predicate declarations, and per-txn termination seqs."""
    predicates: Dict[str, PredicateExpr] = {}
    ops: List[OpView] = []
    terminations: Dict[int, int] = {}
    for submit_seq, group in sorted(oh.by_submit().items()):
        blocked = next((r for r in group if r.status == STATUS_BLOCKED), None)
        completion = next((r for r in group if r.completes()), None)
        source = completion or blocked
        if source is None:
            continue
        step, bindings = parse_record_op(source.op_text)
        if step.kind is OpKind.PRED:
            predicates[step.pred_var] = step.predicate
            continue
        if step.kind in (OpKind.MAP, OpKind.IL):
            continue
        if step.kind in (OpKind.C, OpKind.A):
            if completion is not None and completion.succeeded():
                terminations.setdefault(step.txn, completion.seq)
            continue
        if completion is not None and completion.status == STATUS_DEADLOCK:
            terminations.setdefault(step.txn, completion.seq)
        reckey = bindings.get(step.row_var) if step.row_var else None
        ops.append(OpView(submit_seq, step.txn, step, reckey, blocked, completion))
    return ops, predicates, terminations


def detect_pairs(oh: OutputHistory) -> List[ConflictPair]:
    """Every ordered cross-transaction pair on a common resource with at
    least one write.  The first op must have executed; the second op either
    executed later or blocked.  Predicate membership that cannot be decided
    (a blocked write with no images) yields a pair with
    ``membership_known=False`` for the judge to report as inconclusive.
    """
    ops, predicates, terminations = _collect_ops(oh)
    pairs: List[ConflictPair] = []
    for first in ops:
        if not first.succeeded:
            continue
        first_end = terminations.get(first.txn)
        for second in ops:
            if second.txn == first.txn:
                continue
            if second.succeeded:
                if second.completion.seq <= first.completion.seq:
                    continue
            elif second.blocked is not None:
                if second.blocked.seq <= first.completion.seq:
                    continue
            else:
                continue
            pair = _classify_pair(first, second, predicates, first_end)
            if pair is not None:
                pairs.append(pair)
    return pairs


def _classify_pair(first: OpView, second: OpView, predicates: Dict[str, PredicateExpr],
                   first_end: Optional[int]) -> Optional[ConflictPair]:
    cls = None
    resource = None
    membership_known = True
    first_writes, second_writes = first.step.kind in WRITE_KINDS, second.step.kind in WRITE_KINDS
    if first_writes and second_writes:
        shared = first.write_keys & second.write_keys
        if shared:
            cls, resource = "w_w", f"reckey={min(shared)}"
    elif first_writes or second_writes:
        writer, reader = (first, second) if first_writes else (second, first)
        name = "w_{}" if writer is first else "{}_w"
        if reader.step.kind is OpKind.R:
            if reader.reckey is not None and reader.reckey in writer.write_keys:
                cls, resource = name.format("r"), f"reckey={reader.reckey}"
        elif reader.step.kind in (OpKind.PR, OpKind.SS):
            pred = predicates.get(reader.step.pred_var)
            if pred is not None:
                try:
                    hit = any(pred.holds(v) for v in writer.write_value_dicts())
                except MissingImages:
                    hit, membership_known = True, False
                if hit:
                    cls, resource = name.format("pr"), f"pred {reader.step.pred_var}"
    if cls is None:
        return None
    concurrent = bool(
        second.succeeded
        and (first_end is None or second.completion.seq < first_end)
    )
    return ConflictPair(
        cls=cls,
        first=first,
        second=second,
        resource=resource,
        concurrent=concurrent,
        second_blocked=second.blocked is not None,
        first_end_seq=first_end,
        membership_known=membership_known,
    )


def _permitted(cls: str, l1: IsolationLevel) -> bool:
    if cls == "r_w":
        return l1 == IsolationLevel.RC
    if cls == "pr_w":
        return l1 in (IsolationLevel.RC, IsolationLevel.RR)
    return False


def judge(pairs: List[ConflictPair], levels: Dict[int, IsolationLevel],
          ru_writes: Optional[List[OutputRecord]] = None) -> Judgment:
    """Apply the permitted-combination rules to detected pairs.

    ``levels`` maps every involved transaction to its isolation level;
    ``ru_writes`` carries successful write records of RU transactions (a
    finding on their own, since RU transactions must be read only).
    """
    out = Judgment(pairs=list(pairs), ru_writes=list(ru_writes or []))
    for pair in pairs:
        l1 = levels.get(pair.first.txn)
        l2 = levels.get(pair.second.txn)
        if l1 is None or l2 is None:
            raise UnknownLevel(
                f"no isolation level for transaction {pair.first.txn if l1 is None else pair.second.txn}"
            )
        if l1 == IsolationLevel.RU and l2 == IsolationLevel.RU:
            out.inconclusive.append(f"both transactions at RU: {pair.describe()}")
            continue
        if IsolationLevel.RU in (l1, l2):
            continue  # judged only through the RU write rule
        if not pair.membership_known:
            out.inconclusive.append(f"predicate membership unknown: {pair.describe()}")
            continue
        permitted = _permitted(pair.cls, l1)
        if pair.concurrent and not permitted:
            out.violations.append(pair)
        elif pair.second_blocked and permitted and not pair.concurrent and not any(
            # a non-permitted pair with the same blocked op and first txn explains the block
            other.second is pair.second and other.first.txn == pair.first.txn
            and not _permitted(other.cls, l1)
            for other in pairs
        ):
            out.over_restrictive.append(pair)
    return out


def ru_write_records(oh: OutputHistory, levels: Dict[int, IsolationLevel]) -> List[OutputRecord]:
    out = []
    for submit_seq, group in sorted(oh.by_submit().items()):
        completion = next((r for r in group if r.completes()), None)
        if completion is None or not completion.succeeded():
            continue
        if levels.get(completion.txn) != IsolationLevel.RU:
            continue
        step, _ = parse_record_op(completion.op_text)
        if step.kind in WRITE_KINDS:
            out.append(completion)
    return out


def header_levels(oh: OutputHistory) -> Dict[int, IsolationLevel]:
    return {txn: IsolationLevel[name] for txn, name in oh.header.levels.items()}


def analyze_history(oh: OutputHistory) -> Judgment:
    """Full pipeline for one output history: pairs, RU writes, judgment."""
    levels = header_levels(oh)
    pairs = detect_pairs(oh)
    return judge(pairs, levels, ru_write_records(oh, levels))
