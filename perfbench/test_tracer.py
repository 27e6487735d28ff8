"""Self-test of the benchmark's tracer and output checks.

    python3 -m pytest -q perfbench/test_tracer.py

The exact per-trial counts below are those of the package at the revision the
benchmark was written against; a count that comes out lower means a call
path bypasses a wrapper, i.e. a binding the tracer missed.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import (  # noqa: E402
    ROOT,
    SRC,
    WORKLOADS,
    Digests,
    cli_argv,
    dispatch_in_process,
    hermetic_env,
    launch,
    unit_of,
    verdict,
)
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(SRC))

SEED = 42
ENV = hermetic_env(os.environ)


def traced_counts(workload: str, trials: int) -> dict[str, float]:
    w = WORKLOADS[workload]
    argv = cli_argv(w, trials, SEED)
    reference = launch(argv, ENV)
    assert verdict(reference, w, trials) is None
    tracer = Tracer()
    run = dispatch_in_process(argv, tracer)
    assert run.output == reference.output, "traced output differs from the untraced CLI run"
    return tracer.layer_metrics(run.wall_s, reference.records, len(run.output))


@pytest.mark.parametrize(
    "workload, trials, expected",
    [
        (
            "qepi-d3",
            20,
            {"states.validations_per_trial": 3, "linalg.eigvalsh_per_trial": 3, "rand.generators_per_trial": 1},
        ),
        ("lemma-d3e33", 4, {"states.validations_per_trial": 27, "linalg.qr_per_trial": 2}),
        ("theorem-d2", 2, {"entropy.objective_evals_per_trial": 198}),
    ],
)
def test_traced_counts_are_exact(workload, trials, expected):
    m = traced_counts(workload, trials)
    for name, value in expected.items():
        assert m[name] == value, (name, m[name])


def test_uninstall_restores_every_binding():
    from qudit_epi import harness, states

    before = (harness.make_density, dict(harness._TRIAL_FNS), states.DensityMatrix.eigenvalues_ascending)
    with Tracer():
        assert harness.make_density is not before[0]
        assert harness._TRIAL_FNS["qepi"] is not before[1]["qepi"]
    after = (harness.make_density, dict(harness._TRIAL_FNS), states.DensityMatrix.eigenvalues_ascending)
    assert after == before


def test_parallel_output_matches_serial():
    w = WORKLOADS["all-d2-par2"]
    par2 = cli_argv(w, 4, SEED)
    par1 = [*par2[: par2.index("--parallel")], "--parallel", "1", *par2[par2.index("--parallel") + 2 :]]
    a = launch(par2, ENV)
    b = launch(par1, ENV)
    assert verdict(a, w, 4) is None
    assert a.output == b.output
    traced = dispatch_in_process(par2, Tracer())
    assert traced.output == a.output


def test_verdict_rejects_wrong_count_violations_and_digest():
    w = WORKLOADS["qepi-d3"]
    argv = cli_argv(w, 3, SEED)
    run = launch(argv, ENV)
    assert verdict(run, w, 3) is None
    assert verdict(run, w, 4).startswith("summary reports 3")
    run.output = run.output.replace(b'"pass":true', b'"pass":false', 1)
    assert verdict(run, w, 3).startswith("1 violating")
    digests = Digests()
    assert digests.check(argv, run.output) is None
    assert "digest" in digests.check(argv, run.output + b"\n")


def test_benchmark_json_lists_every_metric_and_workload():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    reported = {name: unit_of(name) for name in Tracer().layer_metrics(1.0, 1, 0)}
    reported["trace.overhead"] = "ratio"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == reported
