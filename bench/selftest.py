"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Judges a few generated histories, confirms the checks accept the real
outputs, then corrupts each output in one way and confirms the matching
check rejects it: a wrong read value, a wrong predicate-read key set, a
flipped cell outcome, a dropped committed image, a lock taken after a long
lock was released, and a verdict other than CONFORMS.  Exits 0 only when
every corruption is caught.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace

import checks
import run
import workloads


@dataclass
class Judged:
    case: workloads.Case
    text: str
    verdict: str
    final_rows: dict
    events: list


def judge(program, case) -> Judged:
    program.engines.clear()
    text, judgment = run.Chain(program.ih).judge(case, program.configs[(case.rows, case.lock_scope)])
    engine = program.engines[-1]
    final_rows = {k: r.values for k, r in engine.table.rows.items() if not r.tombstone}
    return Judged(case, text, judgment.verdict.value, final_rows, list(engine.lock_events))


def problems(j: Judged) -> list:
    return checks.check_history(j.case, j.text, j.verdict, j.final_rows, j.events)


def line_of(text: str, pattern: str) -> str:
    return next(line for line in text.splitlines() if re.search(pattern, line))


def main() -> int:
    program = run.load_program()
    matrix = {c.name: c for c in run.make_workload("matrix", 0, program.ih).cases}
    w_r = judge(program, matrix["w_r_RC_RC_default"])  # R2 blocks, then reads 1001
    w_w = judge(program, matrix["w_w_RC_RC_default"])
    scan = judge(program, next(c for c in workloads.scan(0).cases if c.kind == "pr_w_insert"))
    contention = judge(program, next(c for c in workloads.contention(0).cases if c.kind == "su_first"))

    failures = 0

    def expect(label: str, judged: Judged, want_clean: bool) -> None:
        nonlocal failures
        found = problems(judged)
        ok = not found if want_clean else bool(found)
        failures += not ok
        detail = "accepted" if not found else f"rejected: {found[0]}"
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    for judged in (w_r, w_w, scan, contention):
        expect(f"real output of {judged.case.name}", judged, want_clean=True)

    read = line_of(w_r.text, r" R2\(.* VALUES=1001")
    expect("wrong read value", replace(w_r, text=w_r.text.replace(read, read.replace("VALUES=1001", "VALUES=10000"))), False)

    drain = line_of(scan.text, r"PR1\(P1;reckey;all\)")
    keys = drain.split("VALUES=")[1].split(",")
    wrong = drain.replace("VALUES=" + ",".join(keys), "VALUES=" + ",".join(keys[:-1]))
    expect("predicate read missing a key", replace(scan, text=scan.text.replace(drain, wrong)), False)

    blocked = line_of(w_r.text, r" R2\(.* BLOCKED$")
    resumed = line_of(w_r.text, r" R2\(.* RESUMED=")
    flipped = w_r.text.replace(blocked + "\n", "").replace(resumed, re.sub(r"RESUMED=\d+", "OK", resumed))
    expect("flipped cell outcome (blocked shown as executed)", replace(w_r, text=flipped), False)

    write = line_of(w_w.text, r" W1\(.* BEFORE=")
    dropped = w_w.text.replace(write, write.split(" BEFORE=")[0])
    expect("dropped committed image", replace(w_w, text=dropped), False)

    su = line_of(contention.text, r" SU1\(.* BEFORE=")
    images = su.split(" BEFORE=")
    fewer = " BEFORE=".join(images[:-1])
    expect("set update missing one row image", replace(contention, text=contention.text.replace(su, fewer)), False)

    release = next(i for i, ev in enumerate(contention.events)
                   if ev.action == "RELEASE" and ev.duration.value == "LONG")
    late = replace(contention.events[release], action="ACQUIRE", seq=10**6)
    expect("lock acquired after a long release", replace(contention, events=contention.events + [late]), False)

    expect("verdict other than CONFORMS", replace(scan, verdict="VIOLATION"), False)

    print(f"{'all corruptions caught' if not failures else f'{failures} check(s) missed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
