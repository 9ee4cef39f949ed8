import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoharness
from isoharness.analyzer import analyze_history
from isoharness.cli import main, run_campaign
from isoharness.engine import EngineConfig, LockScope
from isoharness.notation import IsolationLevel as IL
from isoharness.outhist import parse_output, serialize

from conftest import fast_config


def test_dataset_dump_first_rows(capsys):
    assert main(["dataset", "dump", "--rows", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "\t".join(
        "reckey recval c2 c3 c4 c5 c6 c50 c100 k2 k3 k4 k5 k6 k50 k100".split()
    )
    assert lines[1] == "\t".join("100 10000 0 0 0 0 0 0 0 0 0 0 0 0 0 0".split())
    assert lines[2] == "\t".join("200 20000 1 1 1 1 1 1 1 1 1 1 1 1 1 1".split())
    assert len(lines) == 201


def test_run_writes_outhist_and_exits_zero(tmp_path, capsys):
    hist = tmp_path / "one.hist"
    hist.write_text("IL1(RC) W1(A, 1001) C1\n")
    out = tmp_path / "one.outhist"
    code = main(["run", str(hist), "-o", str(out)])
    assert code == 0
    oh = parse_output(out.read_text())
    assert oh.finals == {1: "COMMITTED"}


def test_run_parse_error_exit_code(tmp_path, capsys):
    hist = tmp_path / "bad.hist"
    hist.write_text("WAT1(A)\n")
    assert main(["run", str(hist)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_run_rejects_an_unknown_default_level(tmp_path, capsys):
    hist = tmp_path / "level.hist"
    hist.write_text("#: default_level=SERIALIZABLE\nW1(A, 1) C1\n")
    assert main(["run", str(hist)]) == 1
    err = capsys.readouterr().err
    assert "parse error" in err and "at line 1, column 18: 'SERIALIZABLE'" in err
    assert not hist.with_suffix(".outhist").exists()


def test_run_reports_a_file_it_cannot_read_or_write(tmp_path, capsys):
    bad = tmp_path / "bad.hist"
    bad.write_bytes(b"\xff\xfe")
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"cannot read {bad}: ")
    good = tmp_path / "good.hist"
    good.write_text("W1(A, 1) C1\n")
    missing = tmp_path / "missing" / "good.outhist"
    assert main(["run", str(good), "-o", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"cannot write {missing}: ")


@pytest.mark.parametrize("rows", ["150", "0", "-100", "x"])
@pytest.mark.parametrize("command", [["run", "h.hist"], ["campaign"], ["dataset", "dump"]],
                         ids=["run", "campaign", "dataset"])
def test_rows_not_a_positive_multiple_of_100_is_a_usage_error(capsys, command, rows):
    with pytest.raises(SystemExit) as info:
        main([*command, "--rows", rows])
    assert info.value.code == 2
    assert "argument --rows: " in capsys.readouterr().err


def test_run_stuck_exit_code(tmp_path, capsys):
    hist = tmp_path / "stuck.hist"
    hist.write_text("IL1(RC) IL2(RC) W1(A, 1) W2(A, 2) C2\n")
    code = main(["run", str(hist), "-o", str(tmp_path / "stuck.outhist")])
    assert code == 2


@pytest.mark.parametrize("scope", ["predicate", "incremental"])
def test_large_drain_is_not_stuck(tmp_path, scope):
    hist = tmp_path / "drain.hist"
    hist.write_text("PRED(P, k2=0 and k3=0) IL1(RC) PR1(P;reckey;all) C1\n")
    out = tmp_path / "drain.outhist"
    code = main([
        "run", str(hist), "--rows", "20000",
        "--lock-scope", scope, "-o", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert " PR1(P;reckey;all) OK " in text
    assert "# final: 1=COMMITTED" in text


def test_run_verbose_mirrors_records(tmp_path, capsys):
    hist = tmp_path / "v.hist"
    hist.write_text("IL1(RC) IL2(RC) W1(A, 1001) W2(A, 5) C1 C2\n")
    out = tmp_path / "v.outhist"
    assert main(["run", str(hist), "-o", str(out), "--verbose"]) == 0
    records = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert " BLOCKED" in records[3] and " RESUMED=" in records[5]
    assert capsys.readouterr().out == "".join(line + "\n" for line in records)


def test_campaign_has_no_verbose_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["campaign", "--verbose"])
    assert info.value.code == 2


def test_gen_writes_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--classes", "w_w,pr_w", "--levels", "RC,SR", "--ru", "--out", str(out)]) == 0
    files = sorted(out.glob("*.hist"))
    assert len(files) == 9  # 2 classes x 4 level pairs + ru scenario
    assert any("ru_scenario" in f.name for f in files)


def test_gen_then_run_then_analyze(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["gen", "--classes", "w_w", "--levels", "RC", "--out", str(corpus)])
    hist = next(corpus.glob("*.hist"))
    out = tmp_path / "r.outhist"
    assert main(["run", str(hist), "-o", str(out)]) == 0
    assert main(["analyze", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "CONFORMS" in printed
    assert "w_w" in printed


def test_campaign_cli_small(capsys):
    code = main([
        "campaign", "--classes", "w_w", "--levels", "RC",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "cell w_w default RC RC BLOCKED CONFORMS" in printed


@pytest.mark.parametrize("module", ["isoharness", "isoharness.cli"])
def test_python_m_runs_the_campaign(module, tmp_path):
    src = str(Path(isoharness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", module, "campaign", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "totals BLOCKED=36 EXECUTED=9" in done.stdout
    assert len(list(tmp_path.glob("*.outhist"))) == 45


def test_campaign_strict_reports_findings_but_exits_zero(tmp_path, capsys):
    # findings on the deliberately over-restrictive subject are the expected
    # result, not a failure; only per-level findings fail the command
    out = tmp_path / "outputs"
    code = main([
        "campaign", "--classes", "r_w", "--levels", "RC",
        "--strictness", "strict", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "cell r_w default RC RC OVER_RESTRICTIVE OVER_RESTRICTIVE" in printed
    written = list(out.glob("*.outhist"))
    assert len(written) == 1
    assert parse_output(written[0].read_text()).header.strictness == "STRICT_ALL_LONG"


def test_analyze_exits_nonzero_on_findings(tmp_path, capsys):
    # judged from disk, any verdict but CONFORMS fails the command
    strict, per_level = tmp_path / "strict", tmp_path / "per_level"
    for out, strictness in ((strict, "strict"), (per_level, "per-level")):
        main(["campaign", "--classes", "r_w", "--levels", "RC",
              "--strictness", strictness, "--out", str(out)])
    conforming = [str(p) for p in per_level.glob("*.outhist")]
    assert main(["analyze", *conforming]) == 0
    assert main(["analyze", *conforming, *map(str, strict.glob("*.outhist"))]) == 1
    assert "totals: CONFORMS=1 OVER_RESTRICTIVE=1" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [
    ("5 5 C1 OK", "5 5 FOO1 OK"),  # a record whose op is not an operation
    ("# levels: 1=RC 2=RC", "# levels: 1=RC"),  # a transaction with no level
    ("# levels: 1=RC 2=RC", "# levels: 1=XX 2=RC"),  # not a level name
    ("5 5 C1 OK", "5 5 C1 OK \udcff"),  # a byte that is not UTF-8: the file cannot be read
])
def test_analyze_reports_a_bad_file_and_goes_on(tmp_path, capsys, old, new):
    out = tmp_path / "out"
    main(["campaign", "--classes", "w_w", "--levels", "RC", "--out", str(out)])
    good = next(out.glob("*.outhist"))
    text = good.read_text()
    assert old in text.splitlines()
    bad = tmp_path / "bad.outhist"
    bad.write_bytes(text.replace(old, new).encode(errors="surrogateescape"))
    capsys.readouterr()
    assert main(["analyze", str(bad), str(good)]) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith(f"{bad}: ") and len(printed.err.splitlines()) == 1
    assert "totals: CONFORMS=1" in printed.out


# An output history as an older version wrote it: its header also gives the
# run mode and the timeout of a stuck guard.
OLD_OUTHIST = """\
# name: w_w_RC_RC_default
# mode: SYNC
# lock-scope: PREDICATE
# strictness: PER_LEVEL
# default-level: RC
# rows: 200
# timeout: 2.0
# ru-writes-allowed: no
# levels: 1=RC 2=RC
# meta: name=w_w_RC_RC_default class=w_w l1=RC l2=RC variant=default
1 1 IL1(RC) OK
2 2 IL2(RC) OK
3 3 W1(A=100,1001) OK BEFORE=reckey:100;recval:10000;c2:0;c3:0;c4:0;c5:0;c6:0;c50:0;c100:0;k2:0;k3:0;k4:0;k5:0;k6:0;k50:0;k100:0 AFTER=reckey:100;recval:1001;c2:0;c3:0;c4:0;c5:0;c6:0;c50:0;c100:0;k2:0;k3:0;k4:0;k5:0;k6:0;k50:0;k100:0
4 4 W2(A=100,2002) BLOCKED
5 5 C1 OK
6 4 W2(A=100,2002) RESUMED=4 BEFORE=reckey:100;recval:1001;c2:0;c3:0;c4:0;c5:0;c6:0;c50:0;c100:0;k2:0;k3:0;k4:0;k5:0;k6:0;k50:0;k100:0 AFTER=reckey:100;recval:2002;c2:0;c3:0;c4:0;c5:0;c6:0;c50:0;c100:0;k2:0;k3:0;k4:0;k5:0;k6:0;k50:0;k100:0
7 6 C2 OK
# final: 1=COMMITTED 2=COMMITTED
"""


def test_analyze_reads_a_file_with_mode_and_timeout_lines(tmp_path, capsys):
    old = tmp_path / "old.outhist"
    old.write_text(OLD_OUTHIST)
    kept = [line for line in OLD_OUTHIST.splitlines(keepends=True)
            if not line.startswith(("# mode:", "# timeout:"))]
    assert serialize(parse_output(OLD_OUTHIST)) == "".join(kept)
    assert main(["analyze", str(old)]) == 0
    assert "w_w_RC_RC_default: CONFORMS" in capsys.readouterr().out



def test_analyze_summary_keeps_each_variant(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["campaign", "--classes", "w_pr", "--levels", "RC", "--variants", "insert,delete",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", *map(str, sorted(out.glob("*.outhist")))]) == 0
    printed = capsys.readouterr().out
    summary = printed.split("summary (class, variant, L1, L2 -> verdict):\n")[1].split("\n\n")[0]
    assert summary.splitlines() == [
        "  w_pr   delete     RC_RC: CONFORMS",
        "  w_pr   insert     RC_RC: CONFORMS",
    ]


def test_campaign_report_determinism():
    base = fast_config()
    a = run_campaign(base, classes=("r_w",), levels=(IL.RC, IL.RR))
    b = run_campaign(base, classes=("r_w",), levels=(IL.RC, IL.RR))
    assert a.machine_lines() == b.machine_lines()
    for key in a.cells:
        assert serialize(a.cells[key].output) == serialize(b.cells[key].output)


@pytest.mark.parametrize("scope", [LockScope.PREDICATE, LockScope.INCREMENTAL_RANGE])
def test_campaign_insert_delete_set_update_grid(scope):
    # the end-to-end runs of deletes and set updates through the engine
    report = run_campaign(
        fast_config(engine=EngineConfig(lock_scope=scope)),
        variants=("insert", "delete", "set_update"),
    )
    assert dict(report.totals) == {"EXECUTED": 21, "BLOCKED": 60}
    assert report.findings() == []


def _pair_shapes(judgment):
    return [(p.cls, p.resource, p.concurrent, p.second_blocked) for p in judgment.pairs]


@pytest.mark.parametrize("scope", [LockScope.PREDICATE, LockScope.INCREMENTAL_RANGE])
def test_campaign_judged_from_disk_matches_the_run(scope, tmp_path):
    report = run_campaign(
        fast_config(engine=EngineConfig(lock_scope=scope)),
        variants=("insert", "delete", "set_update", "partial"),
        out_dir=tmp_path,
    )
    assert len(report.cells) == 99
    for cell in report.cells.values():
        parsed = parse_output((tmp_path / f"{cell.name}.outhist").read_text())
        assert parsed == cell.output, cell.name
        from_disk, in_memory = analyze_history(parsed), analyze_history(cell.output)
        assert from_disk.verdict is cell.verdict is in_memory.verdict, cell.name
        assert _pair_shapes(from_disk) == _pair_shapes(in_memory), cell.name
