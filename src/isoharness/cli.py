"""Command line entry point: dataset, gen, run, analyze, campaign.

``campaign`` is the one-shot reproduction of the full conflict matrix:
generate one history per (class, level pair), run each on a fresh engine,
analyze each output, and report a class-by-level-pair grid.  On the
reference configuration (per-level strictness) any VIOLATION or
OVER_RESTRICTIVE cell fails the command.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .analyzer import AnalyzerError, Judgment, Verdict, analyze_history
from .dataset import build_canonical_table, check_row_count, dump_tsv
from .engine import EngineConfig, LockScope, Strictness
from .executor import ExecutorConfig, run_history
from .generator import (
    ALL_CLASSES,
    DEFAULT_VARIANT,
    generate_matrix,
    ru_scenario,
)
from .notation import IsolationLevel, NotationError, parse_history, render_history
from .outhist import FormatError, OutputHistory, parse_output, serialize


_LOCK_SCOPES = {
    "predicate": LockScope.PREDICATE,
    "incremental": LockScope.INCREMENTAL_RANGE,
    "table": LockScope.TABLE,
}


def _add_matrix_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classes", default=None, help="comma-separated subset of " + ",".join(ALL_CLASSES))
    parser.add_argument("--levels", default=None, help="comma-separated subset of RC,RR,SR")
    parser.add_argument("--variants", default=None,
                        help="predicate-change variants (insert,delete,set_update,partial)")


def _matrix_args(args) -> tuple:
    """``generate_matrix``'s (levels, classes, variants), from the matrix options."""
    levels = [IsolationLevel[l] for l in args.levels.split(",")] if args.levels else None
    classes = args.classes.split(",") if args.classes else None
    variants = tuple(args.variants.split(",")) if args.variants else (DEFAULT_VARIANT,)
    return levels, classes, variants


def _rows(text: str) -> int:
    try:
        return check_row_count(int(text))
    except ValueError as exc:  # not an integer, or InvalidRowCount
        raise argparse.ArgumentTypeError(str(exc)) from None


def _file(path: Path, text: Optional[str] = None) -> str:
    """Read ``path``, or write ``text`` there; any failure, text not in UTF-8 too, is an OSError."""
    try:
        if text is None:
            return path.read_text(encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        return text
    except (OSError, UnicodeError) as exc:
        raise OSError(f"cannot {'read' if text is None else 'write'} {path}: {exc}") from None


def _dir(path: Path) -> None:
    """Make the directory ``path`` and its parents; a failure is an OSError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot make directory {path}: {exc}") from None


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=_rows, default=200, help="table size, multiple of 100")
    parser.add_argument("--lock-scope", choices=tuple(_LOCK_SCOPES), default="predicate",
                        help="table: incremental range locking without a key index")
    parser.add_argument("--strictness", choices=("per-level", "strict"), default="per-level")
    parser.add_argument("--ru-writes-allowed", action="store_true",
                        help="let RU transactions write (reproduces permissive systems)")


def _exec_config(args) -> ExecutorConfig:
    engine = EngineConfig(
        lock_scope=_LOCK_SCOPES[args.lock_scope],
        strictness=Strictness.PER_LEVEL if args.strictness == "per-level" else Strictness.STRICT_ALL_LONG,
        ru_writes_allowed=args.ru_writes_allowed,
    )
    return ExecutorConfig(rows=args.rows, engine=engine)


# ----------------------------------------------------------------- campaign


@dataclass
class CellResult:
    cls: str
    variant: str
    l1: str
    l2: str
    name: str
    outcome: str  # EXECUTED | BLOCKED | VIOLATION | OVER_RESTRICTIVE | INCONCLUSIVE
    verdict: Verdict
    output: OutputHistory


@dataclass
class CampaignReport:
    cells: Dict[Tuple[str, str, str, str], CellResult] = field(default_factory=dict)
    totals: Counter = field(default_factory=Counter)
    config: Dict[str, str] = field(default_factory=dict)

    def machine_lines(self) -> List[str]:
        lines = [
            "config " + " ".join(f"{k}={v}" for k, v in sorted(self.config.items())),
        ]
        for key in sorted(self.cells):
            cell = self.cells[key]
            lines.append(
                f"cell {cell.cls} {cell.variant} {cell.l1} {cell.l2}"
                f" {cell.outcome} {cell.verdict.value}"
            )
        lines.append("totals " + " ".join(f"{k}={v}" for k, v in sorted(self.totals.items())))
        return lines

    def human_table(self) -> str:
        marks = {
            "EXECUTED": "EXEC",
            "BLOCKED": "blocked",
            "VIOLATION": "VIOL!",
            "OVER_RESTRICTIVE": "OVER!",
            "INCONCLUSIVE": "????",
        }
        pairs = sorted({(c.l1, c.l2) for c in self.cells.values()})
        rows = sorted({(c.cls, c.variant) for c in self.cells.values()})
        header = ["class/variant".ljust(18)] + [f"{a}_{b}".ljust(8) for a, b in pairs]
        lines = ["".join(header)]
        for cls, variant in rows:
            cells = [f"{cls}/{variant}".ljust(18)]
            for l1, l2 in pairs:
                cell = self.cells.get((cls, variant, l1, l2))
                cells.append((marks[cell.outcome] if cell else "-").ljust(8))
            lines.append("".join(cells))
        return "\n".join(lines)

    def findings(self) -> List[CellResult]:
        return [
            c for c in self.cells.values()
            if c.outcome in ("VIOLATION", "OVER_RESTRICTIVE", "INCONCLUSIVE")
        ]


def _cell_outcome(judgment: Judgment, intended_cls: str) -> str:
    if judgment.verdict is Verdict.VIOLATION:
        return "VIOLATION"
    if judgment.verdict is Verdict.OVER_RESTRICTIVE:
        return "OVER_RESTRICTIVE"
    intended = [p for p in judgment.pairs if p.cls == intended_cls]
    if any(p.concurrent for p in intended):
        return "EXECUTED"
    if any(p.second_blocked for p in intended):
        return "BLOCKED"
    return "INCONCLUSIVE"


def run_campaign(base_config: ExecutorConfig,
                 levels: Optional[Sequence[IsolationLevel]] = None,
                 classes: Optional[Sequence[str]] = None,
                 variants: Sequence[str] = (DEFAULT_VARIANT,),
                 out_dir: Optional[Path] = None) -> CampaignReport:
    programs = generate_matrix(levels, classes, variants)
    report = CampaignReport(
        config={
            "lock_scope": base_config.engine.lock_scope.value,
            "strictness": base_config.engine.strictness.value,
            "rows": str(base_config.rows),
        }
    )
    if out_dir is not None:
        _dir(out_dir)
    for prog in programs:
        output = run_history(prog, base_config)
        judgment = analyze_history(output)
        meta = prog.metadata
        cls = meta.get("class", "?")
        cell = CellResult(
            cls=cls,
            variant=meta.get("variant", "?"),
            l1=meta.get("l1", "?"),
            l2=meta.get("l2", "?"),
            name=prog.source_name,
            outcome=_cell_outcome(judgment, cls),
            verdict=judgment.verdict,
            output=output,
        )
        report.cells[(cell.cls, cell.variant, cell.l1, cell.l2)] = cell
        report.totals[cell.outcome] += 1
        if out_dir is not None:
            _file(out_dir / f"{cell.name}.outhist", serialize(cell.output))
    return report


# ------------------------------------------------------------- subcommands


def cmd_dataset(args) -> int:
    sys.stdout.write(dump_tsv(build_canonical_table(args.rows)))
    return 0


def cmd_gen(args) -> int:
    programs = generate_matrix(*_matrix_args(args))
    if args.ru:
        programs.append(ru_scenario())
    out = Path(args.out)
    _dir(out)
    for i, prog in enumerate(programs, start=1):
        _file(out / f"{i:03d}_{prog.source_name}.hist", render_history(prog) + "\n")
    print(f"wrote {len(programs)} histories to {out}")
    return 0


def cmd_run(args) -> int:
    path = Path(args.history)
    out_path = Path(args.out) if args.out else path.with_suffix(".outhist")
    try:
        output = run_history(parse_history(_file(path), source_name=path.stem), _exec_config(args))
        text = _file(out_path, serialize(output))
    except NotationError as exc:
        print(f"parse error in {path}: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        sys.stdout.writelines(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    if output.header.stuck:
        print(f"history stuck; partial output written to {out_path}", file=sys.stderr)
        return 2
    if not args.verbose:
        print(f"output written to {out_path}")
    return 0


def cmd_analyze(args) -> int:
    counts: Counter = Counter()
    grid: Dict[Tuple[str, str, str, str], str] = {}
    status = 0
    for name in args.outhists:
        path = Path(name)
        try:
            output = parse_output(_file(path))
            judgment = analyze_history(output)
        except (OSError, FormatError, NotationError, AnalyzerError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
            continue
        verdict = judgment.verdict
        counts[verdict.value] += 1
        if verdict is not Verdict.CONFORMS:
            status = 1
        details = []
        for pair in judgment.violations:
            details.append(f"violation: {pair.describe()}")
        for pair in judgment.over_restrictive:
            details.append(f"over-restrictive: {pair.describe()}")
        for rec in judgment.ru_writes:
            details.append(f"ru-write: {rec.op_text}")
        details.extend(judgment.inconclusive)
        suffix = ("  " + "; ".join(details)) if details else ""
        print(f"{output.header.name}: {verdict.value}{suffix}")
        meta = output.header.meta
        if "class" in meta:
            cell = (meta["class"], meta.get("variant", "?"), meta.get("l1", "?"), meta.get("l2", "?"))
            grid[cell] = verdict.value
    if grid:
        print("\nsummary (class, variant, L1, L2 -> verdict):")
        for (cls, variant, l1, l2), verdict in sorted(grid.items()):
            print(f"  {cls:6s} {variant:10s} {l1}_{l2}: {verdict}")
    print("\ntotals: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return status


def cmd_campaign(args) -> int:
    report = run_campaign(_exec_config(args), *_matrix_args(args),
                          out_dir=Path(args.out) if args.out else None)
    print(report.human_table())
    print()
    for line in report.machine_lines():
        print(line)
    findings = report.findings()
    if findings and args.strictness == "per-level":
        print(f"\n{len(findings)} problem cell(s) found", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isoharness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="canonical table utilities")
    p_dataset.add_argument("action", choices=("dump",))
    p_dataset.add_argument("--rows", type=_rows, default=200)
    p_dataset.set_defaults(func=cmd_dataset)

    p_gen = sub.add_parser("gen", help="generate conflict histories")
    _add_matrix_options(p_gen)
    p_gen.add_argument("--ru", action="store_true", help="also write the RU scenario history")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="execute one history file")
    p_run.add_argument("history")
    p_run.add_argument("-o", "--out", default=None)
    p_run.add_argument("--verbose", action="store_true", help="print each record of the written file")
    _add_run_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_analyze = sub.add_parser("analyze", help="judge output histories")
    p_analyze.add_argument("outhists", nargs="+")
    p_analyze.set_defaults(func=cmd_analyze)

    p_campaign = sub.add_parser("campaign", help="generate, run, and analyze the full matrix")
    _add_matrix_options(p_campaign)
    p_campaign.add_argument("--out", default=None, help="directory for .outhist files")
    _add_run_options(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # for entrypoint: stdout itself is gone
    except OSError as exc:  # a file the command could not read, write or make
        print(exc, file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Run the command line; a reader that closed stdout ends it with status 1."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # Python flushes stdout again at exit: let os.devnull take it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
