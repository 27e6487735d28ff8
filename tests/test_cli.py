import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_epi import harness
from qudit_epi.cli import (
    RunManifest,
    _config_from_args,
    _resolve_timestamp,
    build_parser,
    dispatch,
    emit,
    render_block,
    render_line,
)
from qudit_epi.errors import ValidationError
from qudit_epi.harness import (
    EXPERIMENTS,
    Summary,
    TrialBlock,
    TrialConfig,
    run_experiment,
    run_metadata,
    summarize,
)


def _run(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "qudit_epi.cli", *args], capture_output=True, text=True, **kw
    )


def test_render_line_float_precision():
    line = render_line({"x": 1 / 3, "n": 5, "b": True, "s": "hi", "v": [0.1, None]})
    parsed = json.loads(line)
    assert parsed["x"] == 1 / 3  # the shortest repr round-trips exactly
    assert '"x":0.3333333333333333,' in line
    assert parsed["n"] == 5 and parsed["b"] is True and parsed["v"][1] is None


def test_integral_floats_stay_floats():
    parsed = json.loads(render_line({"t": 0.0, "k": [1.0]}))
    assert parsed == {"t": 0.0, "k": [1.0]}
    assert type(parsed["t"]) is float and type(parsed["k"][0]) is float


def test_render_line_nonfinite():
    line = render_line({"a": math.nan, "b": math.inf})
    parsed = json.loads(line)
    assert math.isnan(parsed["a"]) and math.isinf(parsed["b"])


def test_render_line_equals_json_dumps():
    # One shared encoder with json.dumps's settings writes json.dumps's bytes.
    obj = {
        "x": [1 / 3, -0.0, 1e300, math.nan, -math.inf],
        "s": "κ→\u00e9",
        "n": None,
        "d": {"b": True},
        "t": (0.0, 1 / 3, (2.5,)),
        "nested": {"slacks": {"a": -0.0, "b": {"c": [1e-300, {}]}}, "residuals": {}},
    }
    assert render_line(obj) == json.dumps(obj, separators=(",", ":")) + "\n"


def _json_route(rows, with_experiment):
    """The trial lines of `rows` (row dicts, see the rows_of fixture), each
    line object built key by key and written by the json encoder."""
    lines = []
    for row in rows:
        obj = {"type": "trial"}
        if with_experiment:
            obj["experiment"] = row["experiment"]
        obj |= {
            "index": row["index"],
            "tau": row["tau"],
            "kappa": row["kappas"],
            "slacks": row["slacks"],
            "residuals": row["residuals"],
            "pass": row["passed"],
        }
        if row["negligible"]:
            obj["negligible_outcomes"] = row["negligible"]
        lines.append(render_line(obj))
    return "".join(lines)


_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
_KEYS = st.text(st.sampled_from('ak.0"\\%:κ\u00e9\x00\U0001d11e') | st.characters(), max_size=5)


@st.composite
def _blocks(draw):
    # Columns with holes (None), so that row shapes repeat and interleave
    # within a block, and negligible counts on some rows only.
    n = draw(st.integers(1, 6))

    def columns(values):
        keys = draw(st.lists(_KEYS, max_size=4, unique=True))
        return {key: draw(st.lists(values, min_size=n, max_size=n)) for key in keys}

    return TrialBlock(
        draw(st.sampled_from(EXPERIMENTS)),
        range(start := draw(st.integers(0, 2**64)), start + n),
        draw(st.lists(_FLOATS, min_size=n, max_size=n)),
        tuple(draw(st.lists(_FLOATS, max_size=3))),
        columns(st.none() | _FLOATS),
        columns(st.none() | _FLOATS),
        columns(st.none() | st.booleans()),
        draw(st.lists(st.just(0) | st.integers(1, 2**40), min_size=n, max_size=n)),
    )


@settings(max_examples=200, deadline=None)
@given(block=_blocks(), with_experiment=st.booleans())
def test_render_block_equals_json_route(rows_of, block, with_experiment):
    assert render_block(block, with_experiment) == _json_route(rows_of([block]), with_experiment)


def test_render_block_equals_json_route_on_edge_values(rows_of):
    edge_floats = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1 / 3]
    slacks = {f"f{i}": [value, -value] for i, value in enumerate(edge_floats)}
    slacks |= {'q"\\%s%%κ': [3.0, None], "\x00k": [None, 0.0]}
    residuals = {"r%": [1e-300, math.nan], "é": [-1e-300, None]}
    flags = {"a": [True, False]}
    blocks = [
        TrialBlock("qepi", range(7, 9), [0.5, -0.0], (0.0, -0.0, 1e16), slacks, residuals, flags, [0, 0]),
        TrialBlock("qepi", range(7, 9), [1.0, 0.0], (0.0, -0.0), slacks, {}, {"a": [None, True]}, [3, 0]),
        TrialBlock("lemma", range(2**64 - 2, 2**64), [-0.0, math.inf], (), {}, {}, {}, [3, 2**40]),
        TrialBlock("concavity", range(0, 1), [0.0], (-0.0,), {"x": [1.0]}, {}, {}, [0]),
    ]
    for block in blocks:
        for with_experiment in (False, True):
            assert render_block(block, with_experiment) == _json_route(rows_of([block]), with_experiment)


def test_render_block_follows_shape_changes_mid_block(rows_of):
    # A conjecture row gains a conjecture_perturbed slack when it re-checks a
    # candidate; a lemma or theorem row carries negligible_outcomes only when
    # some outcome was skipped. Each block interleaves both shapes.
    conjecture = harness._TRIAL_FNS["conjecture"](TrialConfig(d=2, d_e1=2, d_e2=2, seed=10), range(12))
    assert conjecture.slacks["conjecture_perturbed"].count(None) not in (0, 12)
    lemma = harness._TRIAL_FNS["lemma"](TrialConfig(d=2, seed=10), range(3))
    theorem = harness._TRIAL_FNS["theorem"](TrialConfig(d=2, seed=10), range(4))
    assert not any(lemma.negligible) and not any(theorem.negligible)
    lemma.negligible[1] = 2
    theorem.negligible[0] = theorem.negligible[3] = 1
    for block in (conjecture, lemma, theorem):
        for with_experiment in (False, True):
            assert render_block(block, with_experiment) == _json_route(rows_of([block]), with_experiment)


def test_manifest_roundtrip():
    # The manifest records every TrialConfig field and nothing else; tau=None is written as "random".
    for tau, written in ((0.5, 0.5), (None, "random")):
        m = RunManifest(command="verify-qepi", config=TrialConfig(d=3, tau=tau), timestamp="1984-01-01T00:00:00+00:00")
        obj = json.loads(render_line(m.to_object()))
        assert set(obj["config"]) == {f.name for f in fields(TrialConfig)}
        assert obj["config"]["tau"] == written
        assert obj["config"]["d"] == 3
        assert (obj["command"], obj["timestamp"]) == (m.command, m.timestamp)


def test_dispatch_writes_jsonl(tmp_path, parse_jsonl):
    out = tmp_path / "run.jsonl"
    code = dispatch(["verify-qepi", "--dim", "2", "--trials", "3", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = parse_jsonl(out.read_text())
    assert len(lines) == 5  # manifest + 3 trials + summary
    assert lines[0]["type"] == "manifest"
    assert all(r["type"] == "trial" for r in lines[1:-1])
    assert [r["index"] for r in lines[1:-1]] == [0, 1, 2]
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["trials"] == 3


def test_dispatch_usage_errors_exit_one(capsys, monkeypatch):
    assert dispatch(["verify-lemma", "--dim", "7", "--trials", "1"]) == 1
    assert "cap" in capsys.readouterr().err
    assert dispatch(["verify-qepi", "--tau", "banana", "--trials", "1"]) == 1
    assert dispatch(["no-such-command"]) == 1
    assert dispatch(["verify-qepi", "--kappa", "9", "--trials", "1"]) == 1
    assert dispatch(["verify-qepi", "--parallel", "0", "--trials", "1"]) == 1
    assert "--parallel" in capsys.readouterr().err
    assert dispatch(["verify-qepi", "--dim", "2", "--trials", "4", "--kappa", "nan"]) == 1
    assert "--kappa must be finite" in capsys.readouterr().err
    assert dispatch(["verify-qepi", "--dim", "2", "--trials", "4", "--tol", "inf"]) == 1
    assert "--tol must be finite" in capsys.readouterr().err
    for seed in ("-1", str(2**64), str(2**70 + 5)):
        assert dispatch(["verify-qepi", "--dim", "2", "--trials", "4", "--seed", seed]) == 1
        assert "--seed must be in [0, 2^64)" in capsys.readouterr().err
    for command in ("verify-qepi", "concavity-scan"):
        argv = [command, "--dim", "3", "--kappa", "1000", "--exploratory-kappa", "--trials", "5"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --kappa 1000.0 overflows") and "Traceback" not in err
    with monkeypatch.context() as mp:
        mp.setitem(harness._TRIAL_FNS, "qepi", _never_called)
        assert dispatch(["verify-qepi", "--dim", "2", "--trials", "4", "--out", ""]) == 1
        assert capsys.readouterr().err == "error: cannot write '': not a file in an existing directory\n"
        for epoch in ("abc", "1e99", str(10**30), "-" + str(10**30)):
            mp.setenv("SOURCE_DATE_EPOCH", epoch)
            assert dispatch(["verify-qepi", "--dim", "2", "--trials", "4"]) == 1
            err = capsys.readouterr().err
            assert err == f"error: SOURCE_DATE_EPOCH must be integer seconds of a representable date, got {epoch!r}\n"


def test_dispatch_io_failure_exit_one(tmp_path, capsys):
    target = tmp_path / "nodir" / "run.jsonl"
    assert dispatch(["verify-qepi", "--trials", "1", "--out", str(target)]) == 1
    assert "cannot write" in capsys.readouterr().err


def _never_called(cfg, indices):
    raise AssertionError("a trial ran before the configuration was rejected")


def test_bad_out_path_is_rejected_before_trial_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", _never_called)
    for target in (tmp_path / "nodir" / "run.jsonl", tmp_path):
        assert dispatch(["verify-qepi", "--trials", "3", "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(target)!r}")


def test_existing_out_file_survives_a_failed_run(tmp_path, monkeypatch, capsys):
    # The output file is written only after every trial has run.
    out = tmp_path / "run.jsonl"
    out.write_text("earlier run\n")

    def fails(cfg, indices):
        raise ValidationError("planted")

    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", fails)
    assert dispatch(["verify-qepi", "--trials", "3", "--parallel", "1", "--out", str(out)]) == 1
    assert "planted" in capsys.readouterr().err
    assert out.read_text() == "earlier run\n"


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["all", "--dim", "2", "--trials", "10", "--seed", "7"]
    assert dispatch(argv + ["--out", str(a)]) in (0, 2)
    assert dispatch(argv + ["--out", str(b)]) in (0, 2)
    assert a.read_bytes() == b.read_bytes()


def test_parallel_does_not_change_output(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = ["verify-lemma", "--dim", "2", "--trials", "8", "--seed", "3"]
    assert dispatch(base + ["--parallel", "1", "--out", str(a)]) == 0
    assert dispatch(base + ["--parallel", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_env_override(tmp_path, monkeypatch, parse_jsonl):
    out = tmp_path / "run.jsonl"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    dispatch(["verify-qepi", "--trials", "1", "--seed", "1", "--out", str(out)])
    stamp = parse_jsonl(out.read_text())[0]["timestamp"]
    assert stamp.startswith("2023-11-14T")


def test_cli_module_entrypoint(tmp_path):
    out = tmp_path / "run.jsonl"
    proc = _run(["verify-qepi", "--dim", "2", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_conjecture_finding_exits_two(tmp_path, parse_jsonl):
    # entangled environment: re-verified candidates are findings, exit code 2
    out = tmp_path / "run.jsonl"
    code = dispatch(
        ["search-conjecture", "--dim", "2", "--env-dim1", "2", "--trials", "12", "--seed", "10", "--out", str(out)]
    )
    assert code == 2
    summary = parse_jsonl(out.read_text())[-1]
    assert summary["violations"] > 0


def test_stdout_output(capsys, parse_jsonl):
    code = dispatch(["verify-qepi", "--trials", "2", "--seed", "4", "--out", "-"])
    assert code == 0
    lines = parse_jsonl(capsys.readouterr().out)
    assert lines[0]["type"] == "manifest" and lines[-1]["type"] == "summary"


def test_emit_empty_record_list(tmp_path, parse_jsonl):
    out = tmp_path / "empty.jsonl"
    manifest = RunManifest(command="verify-qepi", config=TrialConfig(trials=1))
    summary = Summary(trials=0, violations=0, min_slack={}, max_residual=0.0, histogram={})
    emit(manifest, [], summary, str(out))
    lines = parse_jsonl(out.read_text())
    assert len(lines) == 2
    assert lines[0]["type"] == "manifest"
    assert lines[1]["type"] == "summary" and lines[1]["trials"] == 0


def test_summary_recomputable_from_emitted_records(tmp_path, parse_jsonl):
    out = tmp_path / "run.jsonl"
    assert dispatch(["verify-qepi", "--trials", "20", "--seed", "9", "--out", str(out)]) == 0
    lines = parse_jsonl(out.read_text())
    trials = [ln for ln in lines if ln["type"] == "trial"]
    summary = lines[-1]
    assert summary["trials"] == len(trials)
    assert summary["violations"] == sum(1 for t in trials if not t["pass"])
    for key, value in summary["min_slack"].items():
        assert value == min(t["slacks"][key] for t in trials if key in t["slacks"])
    assert summary["max_residual"] == max(v for t in trials for v in t["residuals"].values())


def test_streamed_dispatch_equals_emit_of_run_experiment(tmp_path, monkeypatch, parse_jsonl, rows_of, joined):
    # Each subcommand's streamed bytes, at --parallel 1 and 2, equal those
    # emit writes from the rows of run_experiment's blocks, each line
    # rendered by the json encoder, and the summary of one block per
    # experiment. Blocks of 7 split 30 qepi or concavity trials into
    # 7 + 7 + 7 + 7 + 2; the conjecture's blocks mix rows with and without
    # conjecture_perturbed.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    monkeypatch.setitem(harness._BLOCK_SIZE, "concavity", 7)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    commands = [
        ["verify-qepi", "--dim", "3", "--trials", "30", "--seed", "8"],
        ["verify-lemma", "--dim", "2", "--trials", "6", "--seed", "8"],
        ["verify-theorem", "--dim", "2", "--trials", "6", "--seed", "8"],
        ["concavity-scan", "--dim", "4", "--trials", "30", "--seed", "8"],
        ["search-conjecture", "--dim", "2", "--env-dim1", "2", "--trials", "12", "--seed", "10"],
        ["all", "--dim", "2", "--trials", "12", "--seed", "10"],
    ]
    for argv in commands:
        cfg = _config_from_args(build_parser().parse_args(argv))
        experiments = [name for name in EXPERIMENTS if argv[0] == "all" or name in argv[0]]
        runs = [joined(run_experiment(experiment, cfg)) for experiment in experiments]
        lines = _json_route(rows_of(runs), argv[0] == "all")
        summary = summarize(runs, run_metadata(cfg))
        whole = tmp_path / "whole.jsonl"
        emit(RunManifest(command=argv[0], config=cfg, timestamp=_resolve_timestamp()), [lines], summary, str(whole))
        for workers in ("1", "2"):
            streamed = tmp_path / f"streamed-{workers}.jsonl"
            assert dispatch(argv + ["--parallel", workers, "--out", str(streamed)]) == (2 if summary.violations else 0)
            assert streamed.read_bytes() == whole.read_bytes(), (argv, workers)
        assert len(parse_jsonl(whole.read_text())) == 2 + sum(len(run.taus) for run in runs)


def test_all_streams_the_same_bytes_at_parallel_one_and_two(tmp_path, monkeypatch):
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    monkeypatch.setitem(harness._BLOCK_SIZE, "concavity", 7)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"all-{workers}.jsonl"
        assert dispatch(["all", "--dim", "2", "--trials", "20", "--seed", "5", "--parallel", workers, "--out", str(out)]) in (0, 2)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _live_blocks() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is TrialBlock)


def test_at_most_one_block_of_records_is_alive_when_a_block_starts(tmp_path, monkeypatch):
    # At most the previous block is alive when a block starts.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    real = harness._TRIAL_FNS["qepi"]
    alive = []

    def counting(cfg, indices):
        alive.append(_live_blocks() - before)
        return real(cfg, indices)

    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", counting)
    gc.collect()
    before = _live_blocks()
    argv = ["verify-qepi", "--dim", "2", "--trials", "30", "--seed", "8", "--parallel", "1"]
    assert dispatch(argv + ["--out", str(tmp_path / "run.jsonl")]) == 0
    assert len(alive) == 5
    assert max(alive) <= 1, alive


# Launches argv[1:], waits with os.wait4 and prints the exit code and ru_maxrss.
# Linux carries a process's peak RSS across fork and exec, so a child launched
# straight from this test process would read at least this process's peak;
# launched from this small process, it reads its own.
_WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _peak_rss_kb(trials: int, workers: int) -> int:
    """ru_maxrss (KiB on Linux) of the largest process of one verify-qepi
    --dim 3 launch; the rusage from os.wait4 covers the reaped workers."""
    argv = ["verify-qepi", "--dim", "3", "--parallel", str(workers), "--trials", str(trials), "--out", "-"]
    # One BLAS thread: a thread pool's buffers would add start-up noise.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    launcher = [sys.executable, "-c", _WAIT4, sys.executable, "-m", "qudit_epi.cli"]
    done = subprocess.run([*launcher, *argv], env=env, capture_output=True, text=True, check=True)
    code, peak = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return peak


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_peak_memory_grows_by_less_than_0_8_kb_per_trial():
    # A run holds its rendered output (about 0.28 KB per qepi-d3 trial) plus
    # one block's columns, and at --parallel 2 the window of blocks the pool
    # has not handed over; holding every record grows about 1.8 KB per trial.
    for workers in (1, 2):
        small, large = _peak_rss_kb(2000, workers), _peak_rss_kb(20000, workers)
        assert (large - small) / 18000 < 0.8, (workers, small, large)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "argv",
    [["verify-qepi", "--dim", "3", "--trials", "1100"], ["verify-theorem", "--dim", "2", "--trials", "12"]],
    ids=["qepi-d3", "theorem-d2"],
)
def test_launched_cli_writes_the_bytes_of_in_process_dispatch(monkeypatch, capsys, argv, workers):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    argv = [*argv, "--seed", "42", "--parallel", workers, "--out", "-"]
    launched = subprocess.run([sys.executable, "-m", "qudit_epi.cli", *argv], capture_output=True, check=True)
    assert dispatch(argv) == 0
    assert launched.stdout == capsys.readouterr().out.encode()


def test_help_exits_zero_with_a_short_description():
    proc = _run(["--help"])
    assert proc.returncode == 0, proc.stderr
    commands = ("verify-lemma", "verify-theorem", "verify-qepi", "concavity-scan", "search-conjecture", "all")
    assert all(command in proc.stdout for command in commands)
    assert ":func:" not in proc.stdout and "gc.freeze" not in proc.stdout


def test_main_freezes_the_import_time_heap():
    # dispatch is replaced by a stub that reports what main left frozen.
    code = (
        "import gc\n"
        "from qudit_epi import cli\n"
        "cli.dispatch = lambda: print(gc.get_freeze_count()) or 0\n"
        "cli.main()\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert int(done.stdout) > 0


def test_closed_stdout_exits_one_without_a_traceback():
    # The reader goes away before reading: the output (about 0.85 MB) cannot
    # fit the pipe, so the write hits a broken pipe.
    argv = [sys.executable, "-m", "qudit_epi.cli", "verify-qepi", "--dim", "3", "--trials", "3000", "--out", "-"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_parallel_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert build_parser().parse_args(["verify-qepi"]).parallel == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert build_parser().parse_args(["verify-qepi"]).parallel == 8
