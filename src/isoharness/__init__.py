"""Scripted-history test harness for lock-based transaction isolation.

Parse histories written in a compact transactional notation, execute them
against a reference two-phase-locking engine under the four ANSI isolation
levels, and analyze the output histories for violations and over-restrictive
scheduling.
"""

from .analyzer import (
    ConflictPair,
    Judgment,
    Verdict,
    analyze_history,
    detect_pairs,
    judge,
)
from .dataset import CanonicalTable, Row, build_canonical_table, eval_predicate
from .engine import Engine, EngineConfig, LockScope, Strictness, WriteImage
from .executor import BindingEnv, ExecutorConfig, Monitor, run_history
from .generator import generate_matrix, ru_scenario
from .notation import (
    HistoryProgram,
    IsolationLevel,
    OpKind,
    Step,
    parse_history,
    parse_predicate,
    render_history,
)
from .outhist import OutputHistory, OutputRecord, parse_output, serialize

__version__ = "0.1.0"
