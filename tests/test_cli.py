import json
import math
import subprocess
import sys
from dataclasses import fields

from qudit_epi import harness
from qudit_epi.cli import (
    RunManifest,
    dispatch,
    parse_lines,
    render_line,
)
from qudit_epi.errors import ValidationError
from qudit_epi.harness import TrialConfig


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
    obj = {"x": [1 / 3, -0.0, 1e300, math.nan, -math.inf], "s": "κ→\u00e9", "n": None, "d": {"b": True}}
    assert render_line(obj) == json.dumps(obj, separators=(",", ":")) + "\n"


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
    from qudit_epi.cli import emit
    from qudit_epi.harness import Summary

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
