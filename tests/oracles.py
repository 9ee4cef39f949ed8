"""Independent brute-force oracles.

Everything here recomputes expected results from first principles (plain
loops over the defining formulas, cross products over records) without going
through the code paths under test.  Tests freeze values produced by these
oracles or compare implementation output against them wholesale.
"""

from isoharness.notation import And, Comparison, Or, OpKind, parse_record_op
from isoharness.outhist import STATUS_BLOCKED


COLUMN_NS = (2, 3, 4, 5, 6, 50, 100)


def table_rows_oracle(row_count):
    """Rows of the canonical table computed by a direct loop."""
    rows = []
    for i in range(1, row_count + 1):
        row = {"reckey": 100 * i, "recval": 10000 * i}
        for n in COLUMN_NS:
            row[f"c{n}"] = (i - 1) % n
            row[f"k{n}"] = (i - 1) % n
        rows.append(row)
    return rows


def eval_pred_oracle(expr, values):
    """Recursive predicate evaluation, independent of the .holds methods."""
    if isinstance(expr, Comparison):
        v = values[expr.column]
        return {
            "=": v == expr.value,
            "<": v < expr.value,
            ">": v > expr.value,
            "<=": v <= expr.value,
            ">=": v >= expr.value,
            "<>": v != expr.value,
        }[expr.op]
    if isinstance(expr, And):
        return all(eval_pred_oracle(item, values) for item in expr.items)
    if isinstance(expr, Or):
        return any(eval_pred_oracle(item, values) for item in expr.items)
    raise TypeError(expr)


def match_count_oracle(expr, row_count=200):
    return sum(1 for row in table_rows_oracle(row_count) if eval_pred_oracle(expr, row))


WRITE_KINDS = {OpKind.W, OpKind.RW, OpKind.I, OpKind.D, OpKind.SU}
PRED_READ_KINDS = {OpKind.PR, OpKind.SS}


def _op_groups(oh):
    """(submit_seq, step, bindings, blocked_rec, completion_rec) per op."""
    groups = {}
    for rec in oh.records:
        groups.setdefault(rec.submit_seq, []).append(rec)
    out = []
    for submit_seq in sorted(groups):
        recs = groups[submit_seq]
        blocked = next((r for r in recs if r.status == STATUS_BLOCKED), None)
        completion = next((r for r in recs if r.status != STATUS_BLOCKED), None)
        step, bindings = parse_record_op((completion or blocked).op_text)
        out.append((submit_seq, step, bindings, blocked, completion))
    return out


def pair_enumeration_oracle(oh):
    """Cross-product conflict pairs, re-deriving predicate membership from
    images.  Returns a set of (first_submit, second_submit, cls, concurrent)
    signatures for comparison against the analyzer."""
    ops = _op_groups(oh)
    predicates = {}
    terminations = {}
    views = []
    for submit_seq, step, bindings, blocked, completion in ops:
        if step.kind is OpKind.PRED:
            predicates[step.pred_var] = step.predicate
            continue
        if step.kind in (OpKind.MAP, OpKind.IL):
            continue
        done_ok = completion is not None and completion.status in ("OK", "RESUMED")
        if step.kind in (OpKind.C, OpKind.A):
            if done_ok and step.txn not in terminations:
                terminations[step.txn] = completion.seq
            continue
        if completion is not None and completion.status == "ABORTED_DEADLOCK":
            terminations.setdefault(step.txn, completion.seq)
        views.append((submit_seq, step, bindings, blocked, completion, done_ok))

    def write_keys(view):
        submit_seq, step, bindings, blocked, completion, done_ok = view
        if step.kind not in WRITE_KINDS:
            return set()
        keys = set()
        if completion is not None:
            keys.update(img.reckey for img in completion.images)
        if step.kind is not OpKind.SU and step.row_var in bindings:
            keys.add(bindings[step.row_var])
        return keys

    def image_values(view):
        completion = view[4]
        out = []
        if completion is not None:
            for img in completion.images:
                if img.before is not None:
                    out.append(img.before.values)
                if img.after is not None:
                    out.append(img.after.values)
        return out

    signatures = set()
    for a in views:
        a_submit, a_step, _, _, a_completion, a_ok = a
        if not a_ok:
            continue
        for b in views:
            b_submit, b_step, b_bindings, b_blocked, b_completion, b_ok = b
            if b_step.txn == a_step.txn:
                continue
            if b_ok:
                if b_completion.seq <= a_completion.seq:
                    continue
            elif b_blocked is not None:
                if b_blocked.seq <= a_completion.seq:
                    continue
            else:
                continue
            cls = None
            a_writes = a_step.kind in WRITE_KINDS
            b_writes = b_step.kind in WRITE_KINDS
            if a_writes and b_writes and write_keys(a) & write_keys(b):
                cls = "w_w"
            elif a_writes and b_step.kind is OpKind.R:
                if b_bindings.get(b_step.row_var) in write_keys(a):
                    cls = "w_r"
            elif a_step.kind is OpKind.R and b_writes:
                if a[2].get(a_step.row_var) in write_keys(b):
                    cls = "r_w"
            elif a_writes and b_step.kind in PRED_READ_KINDS:
                pred = predicates.get(b_step.pred_var)
                if pred is not None and any(
                    eval_pred_oracle(pred, v) for v in image_values(a)
                ):
                    cls = "w_pr"
            elif a_step.kind in PRED_READ_KINDS and b_writes:
                pred = predicates.get(a_step.pred_var)
                imgs = image_values(b)
                if pred is not None and imgs and any(eval_pred_oracle(pred, v) for v in imgs):
                    cls = "pr_w"
            if cls is None:
                continue
            a_end = terminations.get(a_step.txn)
            concurrent = bool(b_ok and (a_end is None or b_completion.seq < a_end))
            signatures.add((a_submit, b_submit, cls, concurrent))
    return signatures


def check_strict_2pl(events):
    """Offences against strict two-phase locking in an engine event trace:
    no acquisition after a transaction released any long lock, and long
    locks released only at termination."""
    offences = []
    released_long = set()
    for ev in events:
        if ev.action == "ACQUIRE":
            if ev.txn in released_long:
                offences.append(f"event {ev.seq}: T{ev.txn} acquired after releasing a long lock")
        elif ev.action == "RELEASE" and ev.duration.value == "LONG":
            if ev.reason != "TERMINATION":
                offences.append(f"event {ev.seq}: T{ev.txn} released a long lock mid-transaction")
            released_long.add(ev.txn)
    return offences


def replay_committed_state(oh, initial_rows):
    """Expected final table: initial rows plus the images of committed
    transactions applied in commit order."""
    from isoharness.notation import OpKind as OK

    state = {row["reckey"]: dict(row) for row in initial_rows}
    staged = {}
    for rec in sorted(oh.records, key=lambda r: r.seq):
        if rec.status not in ("OK", "RESUMED"):
            continue
        step, _ = parse_record_op(rec.op_text)
        if step.kind is OK.C:
            for img in staged.pop(step.txn, []):
                if img.after is None:
                    state.pop(img.reckey, None)
                else:
                    state[img.reckey] = dict(img.after.values)
            continue
        if step.kind is OK.A:
            staged.pop(step.txn, None)
            continue
        for img in rec.images:
            staged.setdefault(step.txn, []).append(img)
    return state


def committed_value_oracle(oh, initial_rows):
    """Check the no-dirty-read rule from the output alone.

    Replays the history: reads at RC and above must return either the value
    of the last write committed before the read completed or the reader's own
    uncommitted write.  Returns a list of offence descriptions.
    """
    levels = dict(oh.header.levels)
    committed = {row["reckey"]: dict(row) for row in initial_rows}
    own = {}  # txn -> {reckey: values}
    txn_images = {}  # txn -> [images in write order]
    offences = []
    for rec in sorted(oh.records, key=lambda r: r.seq):
        step, bindings = parse_record_op(rec.op_text)
        txn = step.txn
        if rec.status not in ("OK", "RESUMED"):
            continue
        if step.kind in (OpKind.C, OpKind.A):
            images = txn_images.pop(txn, [])
            own.pop(txn, None)
            if step.kind is OpKind.C:
                for img in images:
                    if img.after is None:
                        committed.pop(img.reckey, None)
                    else:
                        committed[img.reckey] = dict(img.after.values)
            continue
        for img in rec.images:
            txn_images.setdefault(txn, []).append(img)
            tracked = own.setdefault(txn, {})
            tracked[img.reckey] = None if img.after is None else dict(img.after.values)
        if levels.get(txn) not in ("RC", "RR", "SR"):
            continue

        def legal_recvals(reckey):
            legal = []
            if reckey in committed:
                legal.append(committed[reckey]["recval"])
            own_vals = own.get(txn, {}).get(reckey)
            if own_vals is not None:
                legal.append(own_vals["recval"])
            return legal

        if step.kind is OpKind.R:
            reckey = bindings.get(step.row_var)
            if reckey is None or not rec.values:
                continue
            got = rec.values[0]
            if got not in legal_recvals(reckey):
                offences.append(
                    f"record {rec.seq}: T{txn} read {got} from {reckey},"
                    f" legal {legal_recvals(reckey)}"
                )
        elif step.kind is OpKind.PR and step.column_spec == ("recval",) and rec.values:
            for item in rec.values:
                if not isinstance(item, tuple) or len(item) != 2:
                    continue
                reckey, got = item
                if got not in legal_recvals(reckey):
                    offences.append(
                        f"record {rec.seq}: T{txn} predicate-read {got} from {reckey},"
                        f" legal {legal_recvals(reckey)}"
                    )
    return offences
