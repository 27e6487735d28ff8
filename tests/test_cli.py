import argparse
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_epi import harness
from qudit_epi.cli import (
    _COMMANDS,
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
        # Finite values whose column sum overflows, negligible counts on every
        # row, and a NaN tau as the only non-finite value: each leaves the
        # template route.
        TrialBlock("qepi", range(2), [0.5, 1.0], (0.0,), {"s": [1e308, 1e308]}, {"r": [0.0, 0.0]}, {}, [0, 0]),
        TrialBlock("theorem", range(4, 6), [0.5, 0.25], (0.0, 1.5), {"s": [1.0, -0.5]}, {}, {"a": [True] * 2}, [1, 7]),
        TrialBlock("concavity", range(2), [math.nan, 0.5], (1.0,), {"x": [1.0, 2.0]}, {"r": [0.0, 1e-300]}, {}, [0, 0]),
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
        assert set(obj["config"]) == set(TrialConfig._fields)
        assert obj["config"]["tau"] == written
        assert obj["config"]["d"] == 3
        assert (obj["command"], obj["timestamp"]) == (m.command, m.timestamp)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", np.int64(5)),
        ("exploratory_kappa", np.bool_(False)),
        ("tolerance", np.float32(1e-9)),
        ("kappa", np.float16(0.5)),
    ],
)
def test_manifest_writes_numpy_scalars_as_python_values(field, value):
    # validate_config accepts numpy scalars; the manifest line is the one of
    # the same config holding the Python values they hold.
    cfg = TrialConfig(d=3)._replace(**{field: value})
    harness.validate_config(cfg, "qepi")
    line = render_line(RunManifest(command="verify-qepi", config=cfg).to_object())
    python = cfg._replace(**{field: value.item()})
    assert type(value.item()) is not type(value)
    assert line == render_line(RunManifest(command="verify-qepi", config=python).to_object())


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
        # Only `date +%s`'s form is accepted: int() would take each of the last four.
        for epoch in ("abc", "1e99", str(10**30), "-" + str(10**30), "1_000", " 12 ", "+5", "\u0661\u0662"):
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
    # The output file is written only after every trial has run: a run that
    # fails in its first block, or in its third once two are spooled (blocks
    # of 7), leaves it as it was.
    out = tmp_path / "run.jsonl"
    out.write_text("earlier run\n")
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    real = harness._TRIAL_FNS["qepi"]
    for failing in (0, 14):

        def fails(cfg, indices):
            if indices.start >= failing:
                raise ValidationError("planted")
            return real(cfg, indices)

        monkeypatch.setitem(harness._TRIAL_FNS, "qepi", fails)
        assert dispatch(["verify-qepi", "--trials", "30", "--parallel", "1", "--out", str(out)]) == 1
        assert "planted" in capsys.readouterr().err
        assert out.read_text() == "earlier run\n"


@pytest.mark.parametrize("target", ["file", "-"])
def test_a_spool_that_cannot_be_created_fails_the_run_before_trial_zero(tmp_path, monkeypatch, capsys, target):
    def no_spool(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_spool)
    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", _never_called)
    out = tmp_path / "run.jsonl"
    out.write_bytes(b"earlier run\n")
    argv = ["verify-qepi", "--dim", "2", "--trials", "3", "--out", str(out) if target == "file" else "-"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert out.read_bytes() == b"earlier run\n"


def test_an_out_file_that_cannot_be_opened_fails_with_one_error_line(tmp_path, monkeypatch, capsys):
    # `run.jsonl/` cannot be opened: the separator makes the file run.jsonl
    # its directory. It is rejected before trial 0, and run.jsonl is kept.
    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", _never_called)
    earlier = tmp_path / "run.jsonl"
    earlier.write_bytes(b"earlier run\n")
    for out in (f"{earlier}/", f"{earlier}/.", f"{tmp_path}/new.jsonl/"):
        assert dispatch(["verify-qepi", "--dim", "2", "--trials", "3", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out!r}: not a file in an existing directory\n"
    assert earlier.read_bytes() == b"earlier run\n"


def test_peak_traced_memory_does_not_grow_with_trials(tmp_path):
    # The trial lines go to the spool, not to a list: the Python heap of a
    # run peaks at one block's columns and lines, so 4096 trials (8 blocks)
    # peak where 1024 (2 blocks) do. Holding the lines grew it by about
    # 0.8 MB. At --parallel 1, so the pool's window plays no part.
    argv = ["verify-qepi", "--dim", "2", "--parallel", "1", "--out", str(tmp_path / "run.jsonl"), "--trials"]
    assert dispatch([*argv, "600"]) == 0  # fills the caches a first run fills
    peaks = []
    for trials in ("1024", "4096"):
        tracemalloc.start()
        try:
            assert dispatch([*argv, trials]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 200_000, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/fd")
def test_no_file_is_left_in_the_temp_directory(tmp_path, monkeypatch, capsys):
    # The spool has no name: a passing, a failing and a killed run all leave
    # the temporary directory as they found it.
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    argv = ["verify-qepi", "--dim", "2", "--parallel", "1", "--out", os.devnull, "--trials"]
    assert dispatch([*argv, "600"]) == 0

    def fails(cfg, indices):
        raise ValidationError("planted")

    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", fails)
    assert dispatch([*argv, "600"]) == 1
    assert "planted" in capsys.readouterr().err
    assert list(tmp.iterdir()) == []
    launch = [sys.executable, "-m", "qudit_epi.cli", *argv, "10000000"]
    proc = subprocess.Popen(launch, env={**os.environ, "TMPDIR": str(tmp)})
    try:
        fds = f"/proc/{proc.pid}/fd"
        for _ in range(600):  # until the spool is open, at most a minute
            links = []
            for fd in os.listdir(fds):
                try:
                    links.append(os.readlink(os.path.join(fds, fd)))
                except FileNotFoundError:
                    pass
            if any(link.startswith(str(tmp)) for link in links):
                break
            assert proc.poll() is None
            time.sleep(0.1)
        else:
            pytest.fail("the run opened no spool")
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert list(tmp.iterdir()) == []


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["all", "--dim", "2", "--trials", "10", "--seed", "7"]
    assert dispatch(argv + ["--out", str(a)]) in (0, 2)
    assert dispatch(argv + ["--out", str(b)]) in (0, 2)
    assert a.read_bytes() == b.read_bytes()


def test_parallel_does_not_change_output(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_lemma_writes_the_bytes_of_the_one_trial_oracle(tmp_path, monkeypatch, lemma_trial, rows_of, workers):
    # The stacked lemma blocks, cut in one block of 40 or two of 20, write
    # what the lines and the summary of the one-trial oracle's rows give.
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    argv = ["verify-lemma", "--dim", "3", "--env-dim1", "2", "--env-dim2", "3", "--trials", "40", "--seed", "11"]
    cfg = _config_from_args(build_parser().parse_args(argv))
    oracle = [lemma_trial(cfg, index) for index in range(cfg.trials)]
    expected, streamed = tmp_path / "oracle.jsonl", tmp_path / "streamed.jsonl"
    manifest = RunManifest(command=argv[0], config=cfg, timestamp=_resolve_timestamp())
    emit(manifest, [_json_route(rows_of(oracle), False)], summarize(oracle, run_metadata(cfg)), str(expected))
    assert dispatch(argv + ["--parallel", workers, "--out", str(streamed)]) == 0
    assert streamed.read_bytes() == expected.read_bytes()


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
    # A run holds one block's columns and lines (the rest of the lines wait in
    # the spool), and at --parallel 2 the window of blocks the pool has not
    # handed over; holding every record grows about 1.8 KB per trial.
    for workers in (1, 2):
        small, large = _peak_rss_kb(2000, workers), _peak_rss_kb(20000, workers)
        assert (large - small) / 18000 < 0.8, (workers, small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_launched_peak_memory_does_not_grow_with_trials():
    # The spool holds the trial lines: 40 000 trials peak within 0.5 MB of
    # 4 000. Holding the rendered lines (about 0.27 KB per trial) made it
    # about 9.7 MB more.
    small, large = _peak_rss_kb(4000, 1), _peak_rss_kb(40000, 1)
    assert large - small < 512, (small, large)


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_help_to_a_full_stdout_exits_one_with_one_error_line(monkeypatch, unbuffered):
    # Buffered, the help fails in its flush; unbuffered, in its write.
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qudit_epi.cli", "--help"], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


def test_help_with_stdout_closed_exits_one_with_one_error_line():
    # sys.stdout is None: argparse would drop the failed write and exit 0.
    argv = [sys.executable, "-m", "qudit_epi.cli", "--help"]
    proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write the help: stdout is closed\n"


def test_qepi_and_concavity_runs_import_no_basis_search():
    # The conditioned experiments and the basis search are imported on first
    # use: by a theorem run, or by the package attribute climb_product_basis.
    code = (
        "import contextlib, io, sys\n"
        "import qudit_epi\n"
        "from qudit_epi import cli\n"
        "lazy = ('qudit_epi.entropy', 'qudit_epi.conditional')\n"
        "def loaded():\n"
        "    return [name in sys.modules for name in lazy]\n"
        "seen = []\n"
        "for command in ('verify-qepi', 'concavity-scan', 'verify-theorem'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.dispatch([command, '--trials', '3', '--parallel', '1']) == 0\n"
        "    seen.append(loaded())\n"
        "assert len(qudit_epi.__all__) == 9\n"
        "from qudit_epi.entropy import climb_product_basis\n"
        "assert qudit_epi.climb_product_basis is climb_product_basis\n"
        "print(seen)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[False, False], [False, False], [True, True]]\n"
    # In an interpreter that has run nothing, the attribute imports it.
    code = "import qudit_epi; print(qudit_epi.climb_product_basis.__module__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "qudit_epi.entropy\n", proc.stderr


def test_importing_the_cli_imports_no_dataclasses():
    code = "import sys, qudit_epi.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_options_may_come_before_the_command(monkeypatch, capsys):
    # One flat parser: no subparsers, so no option is copied per command.
    def no_subparsers(*args, **kwargs):
        raise AssertionError("build_parser added subparsers")

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", no_subparsers)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    options = ["--dim", "2", "--trials", "6", "--seed", "9", "--parallel", "1", "--out", "-"]
    outputs = []
    for argv in (["verify-theorem", *options], [*options, "verify-theorem"], [*options[:4], "verify-theorem", *options[4:]]):
        assert dispatch(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].count("\n") == 8
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_main_freezes_the_import_time_heap():
    # dispatch is replaced by a stub that reports what main left frozen. Like
    # dispatch, it flushes what it writes: main flushes no stdout.
    code = (
        "import gc\n"
        "from qudit_epi import cli\n"
        "cli.dispatch = lambda: print(gc.get_freeze_count(), flush=True) or 0\n"
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_one_with_one_error_line():
    # Every write to /dev/full fails with ENOSPC, in emit's writes or in its
    # flush.
    argv = [sys.executable, "-m", "qudit_epi.cli", "verify-qepi", "--trials", "2000", "--parallel", "1"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "No space left on device" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_launch_with_stderr_closed_writes_no_error_to_stdout():
    # sys.stderr is None: the error line is dropped, not printed into the
    # JSONL stream.
    argv = [sys.executable, "-m", "qudit_epi.cli", "verify-qepi", "--dim", "9", "--out", "-"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
    assert proc.returncode == 1
    assert proc.stdout == b""


def test_parallel_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert build_parser().parse_args(["verify-qepi"]).parallel == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert build_parser().parse_args(["verify-qepi"]).parallel == 8


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_command_without_options_configures_the_default_trial_config(command):
    # The options' defaults are TrialConfig's, value and type.
    cfg = _config_from_args(build_parser().parse_args([command]))
    assert cfg == TrialConfig()
    assert [type(value) for value in cfg] == [type(value) for value in TrialConfig()]


# -------------------------------------------------- the launch's fast exit


@pytest.mark.parametrize("workers", ["1", "2"])
def test_launched_out_file_holds_the_bytes_of_in_process_dispatch(tmp_path, monkeypatch, workers):
    # main ends the launch with os._exit: the --out file is closed, and the
    # pool joined, before dispatch returns.
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    argv = ["all", "--dim", "2", "--trials", "12", "--seed", "10", "--parallel", workers]
    launched, in_process = tmp_path / "launched.jsonl", tmp_path / "in-process.jsonl"
    proc = _run([*argv, "--out", str(launched)])
    assert proc.returncode == dispatch([*argv, "--out", str(in_process)]) == 2
    assert (proc.stdout, proc.stderr) == ("", "")
    assert launched.read_bytes() == in_process.read_bytes()


def test_launched_usage_error_exits_one_with_its_error_line_only():
    proc = _run(["verify-qepi", "--dim", "9", "--trials", "2"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: --dim must be in [2, 6] (dimension cap), got 9\n"


@pytest.mark.parametrize("descriptor", [1, 2])
def test_launch_with_a_closed_standard_stream_writes_its_out_file(tmp_path, descriptor):
    # A descriptor closed at launch leaves its sys stream None, which main's
    # flush skips.
    out = tmp_path / "run.jsonl"
    argv = [sys.executable, "-m", "qudit_epi.cli", "verify-qepi", "--trials", "2", "--out", str(out)]
    assert subprocess.run(argv, preexec_fn=lambda: os.close(descriptor)).returncode == 0
    assert out.read_text().count("\n") == 4


def test_launch_with_stdout_closed_rejects_out_dash_before_trial_zero():
    # sys.stdout is None: `--out -` is a usage error, not a traceback after
    # the last trial.
    argv = [sys.executable, "-m", "qudit_epi.cli", "verify-qepi", "--trials", "2", "--out", "-"]
    proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write '-': stdout is closed\n"


def test_launch_leaves_no_process_behind():
    # Pool workers are joined before dispatch returns, so once the launched
    # process is reaped its session is empty.
    argv = [sys.executable, "-m", "qudit_epi.cli", "all", "--dim", "2", "--trials", "40", "--parallel", "2"]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=120) in (0, 2)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# Imports the package after setting the collector to the state argv[1] names
# and prints what the import left: enabled, frozen count, and the collections
# that ran during the import.
_IMPORT_GC = """
import gc, sys
passes = []
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info["generation"]))
if sys.argv[1] == "disabled":
    gc.disable()
elif sys.argv[1] == "frozen":
    gc.freeze()
before = gc.get_freeze_count()
import qudit_epi
print(gc.isenabled(), gc.get_freeze_count() - before, len(passes))
"""


@pytest.mark.parametrize("state", ["enabled", "disabled", "frozen"])
def test_importing_the_package_runs_no_collection_and_restores_the_collector(state):
    # The import pauses the collector and restores the caller's setting; it
    # leaves the frozen objects as it found them, and unless the caller keeps
    # some frozen, no collection walks the objects the import made.
    done = subprocess.run([sys.executable, "-c", _IMPORT_GC, state], capture_output=True, text=True, check=True)
    enabled, newly_frozen, passes = done.stdout.split()
    assert (enabled, newly_frozen) == (str(state != "disabled"), "0")
    if state != "frozen":
        assert passes == "0"


def test_serial_dispatch_imports_no_process_pool():
    # concurrent.futures.process costs about 13 ms of a launch to import; a
    # serial run must not pay for it.
    code = (
        "import os, sys\n"
        "from qudit_epi.cli import dispatch\n"
        "code = dispatch(['all', '--dim', '2', '--trials', '4', '--parallel', '1', '--out', os.devnull])\n"
        "sys.exit(code not in (0, 2) or any(m in sys.modules for m in ('concurrent.futures', 'multiprocessing')))\n"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# ------------------------------------------- determinism at random settings


_COMMAND_OF = {experiments[0]: command for command, (_, experiments) in _COMMANDS.items() if command != "all"}


@settings(max_examples=40, deadline=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    d=st.sampled_from([2, 3]),
    env=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    trials=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
    kind=st.sampled_from(["ginibre", "pure"]),
)
def test_output_is_a_function_of_the_configuration(tmp_path_factory, experiment, d, env, trials, seed, kind):
    # A command writes the same bytes at --parallel 1 and 2 and on a rerun,
    # and `all` writes the trial lines of the five commands, in turn, each
    # tagged with its experiment.
    options = ["--dim", str(d), "--env-dim1", str(env[0]), "--env-dim2", str(env[1])]
    options += ["--trials", str(trials), "--seed", str(seed), "--state-kind", kind]
    folder = tmp_path_factory.mktemp("configuration")

    def run(command, workers="1"):
        out = folder / "run.jsonl"
        assert dispatch([command, *options, "--parallel", workers, "--out", str(out)]) in (0, 2)
        return out.read_bytes()

    def trial_lines(output):
        return [line for line in output.splitlines(keepends=True) if line.startswith(b'{"type":"trial",')]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_usable_cpus", lambda: 2)
        drawn = run(_COMMAND_OF[experiment])
        assert run(_COMMAND_OF[experiment], "2") == drawn
        assert run(_COMMAND_OF[experiment]) == drawn
        commands = [trial_lines(drawn if name == experiment else run(_COMMAND_OF[name])) for name in EXPERIMENTS]
        tagged = trial_lines(run("all"))
    untagged = []
    for name, lines in zip(EXPERIMENTS, commands):
        tag = b'{"type":"trial","experiment":"%s",' % name.encode()
        mine, tagged = tagged[: len(lines)], tagged[len(lines) :]
        assert all(line.startswith(tag) for line in mine), name
        untagged.append([b'{"type":"trial",' + line[len(tag) :] for line in mine])
    assert not tagged
    assert untagged == commands
