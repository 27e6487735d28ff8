"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one [PASS]/[FAIL] line
per criterion. The heavy fixtures are shared across criteria, so this module
is meant to run as a whole.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qudit_epi.entropy import climb_product_basis
from qudit_epi.harness import TrialConfig, _run_block, run_experiment, run_metadata, summarize
from qudit_epi.rand import haar_unitary
from qudit_epi.states import make_density

from oracles import (
    RandomSource,
    _bilocal_channel,
    entropy_power,
    matrix_distance,
    multipartite,
    partial_swap_closed,
    partial_swap_conjugation,
    partial_swap_global_closed,
    sample_state,
    tensor,
)

WORKERS = max(1, os.cpu_count() or 1)

TAUS = (0.0, 0.25, 0.5, 0.75, 1.0)

# frozen pre-build oracle value for nu_1(|0><0| mixed with |+><+| at tau=1/2)
WORKED_EXAMPLE_LHS = 1.2786123223341486


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _run(experiment, cfg, joined):
    """Every trial of one experiment at --parallel WORKERS, as one block,
    and the summary of its blocks."""
    blocks = list(run_experiment(experiment, cfg, parallel=WORKERS))
    return joined(blocks), summarize(blocks, run_metadata(cfg))


# ----------------------------------------------------------- shared heavy runs


@pytest.fixture(scope="module")
def lemma_runs(joined):
    t0 = time.perf_counter()
    results = {}
    for d in (2, 3, 4):
        for e1 in (2, 3):
            for e2 in (2, 3):
                cfg = TrialConfig(d=d, d_e1=e1, d_e2=e2, trials=1000, seed=1000 + d * 100 + e1 * 10 + e2)
                results[(d, e1, e2)] = _run("lemma", cfg, joined)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def qepi_runs(joined):
    results = {}
    for d in (2, 3, 4, 5):
        cfg = TrialConfig(d=d, trials=1000, seed=2000 + d)
        results[d] = _run("qepi", cfg, joined)
    return results


# ------------------------------------------------------------------- criteria


def test_criterion_1_channel_oracle_equivalence():
    # CPU time of this process: the bound holds however busy the machine is.
    t0 = time.process_time()
    worst_closed = 0.0
    worst_global = 0.0
    for d in (2, 3, 4, 5, 6):
        gen = RandomSource(101, d).generator()
        for i in range(1000):
            r1 = sample_state(gen, d)
            r2 = sample_state(gen, d)
            for tau in TAUS:
                got = partial_swap_closed(r1, r2, tau)
                want = partial_swap_conjugation(r1, r2, tau)
                worst_closed = max(worst_closed, matrix_distance(got.mat, want.mat))
        gen = RandomSource(102, d).generator()
        for i in range(1000):
            s1 = multipartite(sample_state(gen, 2 * d), (d, 2))
            s2 = multipartite(sample_state(gen, 2 * d), (d, 2))
            tau = TAUS[i % len(TAUS)]
            a = _bilocal_channel(s1, s2, tau)
            b = partial_swap_global_closed(s1, s2, tau)
            worst_global = max(worst_global, matrix_distance(a.state.mat, b.state.mat))
    elapsed = time.process_time() - t0
    _report(
        "criterion 1: channel oracle equivalence",
        worst_closed <= 1e-12 and worst_global <= 1e-11 and elapsed < 30.0,
        f"closed {worst_closed:.2e} <= 1e-12, global {worst_global:.2e} <= 1e-11, {elapsed:.1f}s CPU < 30s",
    )


def test_criterion_2_lemma_identity(lemma_runs):
    results, elapsed = lemma_runs
    worst = 0.0
    total = 0
    for block, _ in results.values():
        total += len(block.taus)
        worst = max(worst, max(block.residuals["lemma_identity"]))
    _report(
        "criterion 2: conditional identity residual",
        worst <= 1e-10 and total == 12_000 and elapsed < 180.0,
        f"max residual {worst:.2e} <= 1e-10 over {total} trials in {elapsed:.0f}s < 180s",
    )


def test_criterion_3_majorization(lemma_runs, qepi_runs):
    worst_slack = 0.0
    worst_total = 0.0
    for block, _ in lemma_runs[0].values():
        worst_slack = min(worst_slack, min(block.slacks["lemma_majorization"]))
        worst_total = max(worst_total, max(block.residuals["major_total"]))
    for block, _ in qepi_runs.values():
        worst_slack = min(worst_slack, min(block.slacks["qepi_majorization"]))
        worst_total = max(worst_total, max(block.residuals["major_total"]))
    _report(
        "criterion 3: conditional and unconditional majorization",
        worst_slack >= -1e-9 and worst_total <= 1e-9,
        f"min prefix slack {worst_slack:.2e} >= -1e-9, max total gap {worst_total:.2e} <= 1e-9",
    )


def test_criterion_4_theorem_per_measurement(joined):
    worst = 0.0
    worst_k0 = 0.0
    for d in (2, 3, 4, 5):
        cfg = TrialConfig(d=d, trials=1000, seed=3000 + d)
        block, summary = _run("theorem", cfg, joined)
        assert summary.violations == 0
        for key, column in block.slacks.items():
            if key.startswith("theorem_measured"):
                worst = min(worst, min(column))
        worst_k0 = max(worst_k0, max(map(abs, block.slacks["theorem_measured.k0"])))
    _report(
        "criterion 4: conditional EPI, per-measurement form at the worst basis pair found",
        worst >= -1e-9 and worst_k0 <= 1e-12,
        f"min slack {worst:.2e} >= -1e-9, max |kappa=0 slack| {worst_k0:.2e} <= 1e-12",
    )


def test_criterion_5_unconditional_qepi(qepi_runs):
    worst = 0.0
    for d, (block, summary) in qepi_runs.items():
        assert summary.violations == 0, f"violations at d={d}"
        for key, column in block.slacks.items():
            if key.startswith("qepi."):
                worst = min(worst, min(column))
    zero = make_density(np.diag([1.0, 0.0]))
    plus = make_density(np.full((2, 2), 0.5))
    lhs = entropy_power(partial_swap_closed(zero, plus, 0.5), 1.0)
    _report(
        "criterion 5: unconditional qudit EPI",
        worst >= -1e-9 and abs(lhs - WORKED_EXAMPLE_LHS) <= 1e-3,
        f"min slack {worst:.2e} >= -1e-9, worked example {lhs:.6f} within 1e-3 of {WORKED_EXAMPLE_LHS:.6f}",
    )


def test_criterion_6_concavity(joined):
    worst = 0.0
    for d in (2, 3, 4, 5):
        cfg = TrialConfig(d=d, kappa="max", trials=10_000, seed=4000 + d)
        _, summary = _run("concavity", cfg, joined)
        assert summary.violations == 0
        worst = min(worst, summary.min_slack["concavity.k0"])
    _report(
        "criterion 6: entropy-power midpoint concavity at kappa = 1/(ln d)^2",
        worst >= -1e-9,
        f"min slack {worst:.2e} >= -1e-9 over 4x10^4 simplex pairs",
    )


def test_criterion_7_measurement_machinery(lemma_runs):
    worst_norm = 0.0
    worst_factor = 0.0
    for block, _ in lemma_runs[0].values():
        worst_norm = max(worst_norm, max(block.residuals["prob_norm"]))
        worst_factor = max(worst_factor, max(block.residuals["factorization"]))
    _report(
        "criterion 7: probability normalization and factorization",
        worst_norm <= 1e-9 and worst_factor <= 1e-9,
        f"max |sum p - 1| {worst_norm:.2e}, max |p_jk - q_j q_k| {worst_factor:.2e}, both <= 1e-9",
    )


def test_criterion_8_optimizer_sanity(bell, expected_power_objective):
    gen = RandomSource(105).generator()
    worst = 0.0
    for d, e in [(2, 2), (3, 2), (2, 3)]:
        for kappa in (0.5, 1.0):
            x = sample_state(gen, d)
            s = multipartite(tensor(x, sample_state(gen, e)), (d, e))
            objective = expected_power_objective(s, kappa)
            start = [haar_unitary(e, gen)]
            value, _ = climb_product_basis(objective, start, 106, d * 10 + e)
            # every basis conditions X on x: the climb keeps its start value
            worst = max(worst, abs(float(value) - entropy_power(x, kappa)), float(objective(start) - value))
    s = multipartite(bell, (2, 2))
    bell_value, _ = climb_product_basis(expected_power_objective(s, 1.0), [haar_unitary(2, gen)], 107, 0)
    bell_value = float(bell_value)
    _report(
        "criterion 8: optimizer sanity",
        worst <= 1e-9 and bell_value <= 1.0 + 1e-9,
        f"product-state error {worst:.2e} <= 1e-9, Bell fixture {bell_value:.12f} <= 1 + 1e-9",
    )


def test_criterion_9_conjecture_harness(joined):
    # trivial environment: the reduction is proven, so zero re-verified findings
    violations = 0
    for d in (2, 3):
        cfg = TrialConfig(d=d, d_e1=1, d_e2=1, trials=1000, seed=5000 + d)
        _, summary = _run("conjecture", cfg, joined)
        violations += summary.violations
        assert summary.min_slack["conjecture"] >= -1e-9
    # entangled environment: completes, re-verifies candidates, replays exactly
    cfg = TrialConfig(d=2, d_e1=2, d_e2=2, trials=200, seed=5100)
    block, summary = _run("conjecture", cfg, joined)
    candidates = [i for i, value in enumerate(block.slacks["conjecture_perturbed"]) if value is not None]
    for i in candidates[:3]:
        again = _run_block("conjecture", cfg, range(i, i + 1))
        assert again.slacks == {key: column[i : i + 1] for key, column in block.slacks.items()}
    _report(
        "criterion 9: conjecture search harness",
        violations == 0 and len(block.taus) == 200,
        f"trivial-env re-verified violations {violations} == 0; entangled arm completed with "
        f"{len(candidates)} candidates re-verified and reproducible",
    )


def test_criterion_10_cli_determinism(tmp_path):
    def run(extra, out):
        cmd = [
            sys.executable, "-m", "qudit_epi.cli", "all",
            "--dim", "2", "--trials", "100", "--seed", "7", "--out", str(out), *extra,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode in (0, 2), proc.stderr
        return out.read_bytes()

    a = run([], tmp_path / "a.jsonl")
    b = run([], tmp_path / "b.jsonl")
    c = run(["--parallel", "1"], tmp_path / "c.jsonl")
    d = run(["--parallel", "2"], tmp_path / "d.jsonl")
    _report(
        "criterion 10: CLI determinism",
        a == b and c == d and a == c,
        "byte-identical reruns; output independent of --parallel",
    )
