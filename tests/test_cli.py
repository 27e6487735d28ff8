import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

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
    parse_lines,
    record_to_object,
    render_line,
    render_records,
)
from qudit_epi.errors import ValidationError
from qudit_epi.harness import (
    EXPERIMENTS,
    Summary,
    TrialConfig,
    TrialRecord,
    run_conjecture_trial,
    run_experiment,
    run_lemma_trial,
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


def _json_route(records, with_experiment):
    return "".join(render_line(record_to_object(r, with_experiment)) for r in records)


_SCALARS = st.floats() | st.integers(-(2**70), 2**70) | st.booleans()
_KEYS = st.text(st.sampled_from('ak.0"\\%:κ\u00e9\x00\U0001d11e') | st.characters(), max_size=5)


@st.composite
def _blocks(draw):
    # A few shapes, then records that each take one of them, so that shapes
    # repeat and interleave within a block.
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(EXPERIMENTS),
                st.lists(st.floats(), max_size=3).map(tuple),
                st.lists(_KEYS, max_size=4, unique=True),
                st.lists(_KEYS, max_size=3, unique=True),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        )
    )
    records = []
    for _ in range(draw(st.integers(0, 6))):
        experiment, kappas, slack_keys, residual_keys, negligible = draw(st.sampled_from(shapes))
        record = TrialRecord(
            experiment,
            draw(st.integers(0, 2**64)),
            draw(_SCALARS),
            kappas,
            {key: draw(_SCALARS) for key in slack_keys},
            {key: draw(_SCALARS) for key in residual_keys},
            {"ok": draw(st.booleans())},
            negligible=draw(st.integers(1, 2**40)) if negligible else 0,
        )
        records.append(record)
    return records


@settings(max_examples=200, deadline=None)
@given(records=_blocks(), with_experiment=st.booleans())
def test_render_records_equals_json_route(records, with_experiment):
    assert render_records(records, with_experiment) == _json_route(records, with_experiment)


def test_render_records_equals_json_route_on_edge_values():
    edge_floats = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1 / 3]
    slacks = {f"f{i}": value for i, value in enumerate(edge_floats)} | {'q"\\%s%%κ': 3, "int": -(2**64), "bool": False}
    records = [
        TrialRecord("qepi", 7, 0.5, (0.0, -0.0, 1e16), slacks, {"r%": True, "é": 1e-300}, {"a": True}),
        TrialRecord("qepi", 8, 1.0, (0.0, 0.0, 1e16), slacks, {"r%": True, "é": -1e-300}, {"a": False}),
        TrialRecord("lemma", 2**64 - 1, -0.0, (), {}, {}, {}, negligible=3),
        TrialRecord("concavity", 0, 0, (-0.0,), {"x": 1}, {}, {}),
    ]
    for with_experiment in (False, True):
        assert render_records(records, with_experiment) == _json_route(records, with_experiment)


def test_render_records_follows_shape_changes_mid_block():
    # A conjecture record gains a conjecture_perturbed slack when it re-checks
    # a candidate; a lemma record carries negligible_outcomes only when some
    # outcome was skipped.
    cfg = TrialConfig(d=2, d_e1=2, d_e2=2, trials=1, seed=10)
    conjecture = [run_conjecture_trial(cfg, i) for i in range(12)]
    assert len({"conjecture_perturbed" in r.slacks for r in conjecture}) == 2
    lemma = run_lemma_trial(cfg, 0)
    assert not lemma.negligible
    lemmas = [lemma, replace(lemma, index=1, negligible=2), replace(lemma, index=2)]
    for records in (conjecture, lemmas, conjecture[:3] + lemmas + conjecture[3:]):
        for with_experiment in (False, True):
            assert render_records(records, with_experiment) == _json_route(records, with_experiment)


def test_manifest_roundtrip():
    # The manifest records every TrialConfig field and nothing else; tau=None is written as "random".
    for tau, written in ((0.5, 0.5), (None, "random")):
        m = RunManifest(command="verify-qepi", config=TrialConfig(d=3, tau=tau), timestamp="1984-01-01T00:00:00+00:00")
        obj = json.loads(render_line(m.to_object()))
        assert set(obj["config"]) == {f.name for f in fields(TrialConfig)}
        assert obj["config"]["tau"] == written
        assert obj["config"]["d"] == 3
        assert (obj["command"], obj["timestamp"]) == (m.command, m.timestamp)


def test_dispatch_writes_jsonl(tmp_path):
    out = tmp_path / "run.jsonl"
    code = dispatch(["verify-qepi", "--dim", "2", "--trials", "3", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = parse_lines(out.read_text())
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


def test_timestamp_env_override(tmp_path, monkeypatch):
    out = tmp_path / "run.jsonl"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    dispatch(["verify-qepi", "--trials", "1", "--seed", "1", "--out", str(out)])
    stamp = parse_lines(out.read_text())[0]["timestamp"]
    assert stamp.startswith("2023-11-14T")


def test_cli_module_entrypoint(tmp_path):
    out = tmp_path / "run.jsonl"
    proc = _run(["verify-qepi", "--dim", "2", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_conjecture_finding_exits_two(tmp_path):
    # entangled environment: re-verified candidates are findings, exit code 2
    out = tmp_path / "run.jsonl"
    code = dispatch(
        ["search-conjecture", "--dim", "2", "--env-dim1", "2", "--trials", "12", "--seed", "10", "--out", str(out)]
    )
    assert code == 2
    summary = parse_lines(out.read_text())[-1]
    assert summary["violations"] > 0


def test_stdout_output(capsys):
    code = dispatch(["verify-qepi", "--trials", "2", "--seed", "4", "--out", "-"])
    assert code == 0
    lines = parse_lines(capsys.readouterr().out)
    assert lines[0]["type"] == "manifest" and lines[-1]["type"] == "summary"


def test_emit_empty_record_list(tmp_path):
    out = tmp_path / "empty.jsonl"
    manifest = RunManifest(command="verify-qepi", config=TrialConfig(trials=1))
    summary = Summary(trials=0, violations=0, min_slack={}, max_residual=0.0, histogram={})
    emit(manifest, [], summary, str(out))
    lines = parse_lines(out.read_text())
    assert len(lines) == 2
    assert lines[0]["type"] == "manifest"
    assert lines[1]["type"] == "summary" and lines[1]["trials"] == 0


def test_summary_recomputable_from_emitted_records(tmp_path):
    out = tmp_path / "run.jsonl"
    assert dispatch(["verify-qepi", "--trials", "20", "--seed", "9", "--out", str(out)]) == 0
    lines = parse_lines(out.read_text())
    trials = [ln for ln in lines if ln["type"] == "trial"]
    summary = lines[-1]
    assert summary["trials"] == len(trials)
    assert summary["violations"] == sum(1 for t in trials if not t["pass"])
    for key, value in summary["min_slack"].items():
        assert value == min(t["slacks"][key] for t in trials if key in t["slacks"])
    assert summary["max_residual"] == max(v for t in trials for v in t["residuals"].values())


def test_streamed_dispatch_equals_emit_of_run_experiment(tmp_path, monkeypatch):
    # Blocks of 7 split 30 trials into 7 + 7 + 7 + 7 + 2; the streamed bytes
    # equal those emit writes from run_experiment's full record list.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    argv = ["verify-qepi", "--dim", "3", "--trials", "30", "--seed", "8", "--parallel", "1"]
    streamed, whole = tmp_path / "streamed.jsonl", tmp_path / "whole.jsonl"
    assert dispatch(argv + ["--out", str(streamed)]) == 0
    cfg = _config_from_args(build_parser().parse_args(argv))
    records, summary = run_experiment("qepi", cfg)
    manifest = RunManifest(command="verify-qepi", config=cfg, timestamp=_resolve_timestamp())
    emit(manifest, [render_records(records, False)], summary, str(whole))
    assert streamed.read_bytes() == whole.read_bytes()
    assert len(parse_lines(streamed.read_text())) == 32


def test_all_streams_the_same_bytes_at_parallel_one_and_two(tmp_path, monkeypatch):
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    monkeypatch.setitem(harness._BLOCK_SIZE, "concavity", 7)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"all-{workers}.jsonl"
        assert dispatch(["all", "--dim", "2", "--trials", "20", "--seed", "5", "--parallel", workers, "--out", str(out)]) in (0, 2)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _live_records() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is TrialRecord)


def test_at_most_one_block_of_records_is_alive_when_a_block_starts(tmp_path, monkeypatch):
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    real = harness._TRIAL_FNS["qepi"]
    alive = []

    def counting(cfg, indices):
        alive.append(_live_records() - before)
        return real(cfg, indices)

    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", counting)
    gc.collect()
    before = _live_records()
    argv = ["verify-qepi", "--dim", "2", "--trials", "30", "--seed", "8", "--parallel", "1"]
    assert dispatch(argv + ["--out", str(tmp_path / "run.jsonl")]) == 0
    assert len(alive) == 5
    assert max(alive) <= 7, alive


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
    # one block of records, and at --parallel 2 the window of blocks the pool
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
