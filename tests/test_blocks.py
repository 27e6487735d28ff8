"""Stacked qepi and concavity blocks against a one-trial reference.

The references below rebuild the one-trial computations from the public
scalar functions, each trial opening its own generator. Block records must
equal them exactly, signed zeros included, because output bytes depend on it.
"""

import math

import numpy as np
import pytest

from qudit_epi import harness
from qudit_epi.channels import partial_swap_closed
from qudit_epi.entropy import entropy_nats, prefix_slack
from qudit_epi.errors import ValidationError
from qudit_epi.harness import TrialConfig, resolve_kappas, run_experiment, run_qepi_trial
from qudit_epi.rand import RandomSource, sample_state
from qudit_epi.states import eigenvalues_descending


def _tau(cfg, index, gen):
    if cfg.tau is not None:
        return cfg.tau
    return (0.0, 0.5, 1.0)[index] if index < 3 else float(gen.uniform())


def _kappas(cfg):
    return tuple(k for k, _ in resolve_kappas(cfg))


def reference_qepi(cfg, index):
    gen = RandomSource(cfg.seed, harness._STREAM_BASE["qepi"] + index).generator()
    tau = _tau(cfg, index, gen)
    rho1 = sample_state(gen, cfg.d, cfg.state_kind, cfg.rank)
    rho2 = sample_state(gen, cfg.d, cfg.state_kind, cfg.rank)
    out = partial_swap_closed(rho1, rho2, tau)
    lam1, lam2, lam_out = (eigenvalues_descending(r) for r in (rho1, rho2, out))
    maj_slack, total = prefix_slack(tau * lam1 + (1.0 - tau) * lam2, lam_out)
    s1, s2, s_out = (entropy_nats(lam) for lam in (lam1, lam2, lam_out))
    slacks = {"qepi_majorization": maj_slack}
    for t, kappa in enumerate(_kappas(cfg)):
        slacks[f"qepi.k{t}"] = (
            math.exp(kappa * s_out) - tau * math.exp(kappa * s1) - (1.0 - tau) * math.exp(kappa * s2)
        )
    return index, tau, _kappas(cfg), slacks, {"major_total": abs(total)}


def reference_concavity(cfg, index):
    gen = RandomSource(cfg.seed, harness._STREAM_BASE["concavity"] + index).generator()
    tau = _tau(cfg, index, gen)
    p = gen.dirichlet(np.ones(cfg.d))
    q = gen.dirichlet(np.ones(cfg.d))
    hp, hq, hm = (entropy_nats(v) for v in (p, q, (p + q) / 2))
    slacks = {
        f"concavity.k{t}": math.exp(kappa * hm) - (math.exp(kappa * hp) + math.exp(kappa * hq)) / 2
        for t, kappa in enumerate(_kappas(cfg))
    }
    return index, tau, _kappas(cfg), slacks, {}


REFERENCES = {"qepi": reference_qepi, "concavity": reference_concavity}


def assert_matches_reference(experiment, cfg, records):
    assert [r.index for r in records] == list(range(cfg.trials))
    for r in records:
        got = (r.index, r.tau, r.kappas, r.slacks, r.residuals)
        expected = REFERENCES[experiment](cfg, r.index)
        assert got == expected
        assert repr(got) == repr(expected)  # == does not tell -0.0 from 0.0


_KINDS = [("ginibre", None), ("pure", None), ("rank-k", 1), ("rank-k", 2)]
_TAUS = [None, 0.0, 1.0, 0.3]


@pytest.mark.parametrize("tau", _TAUS, ids=["random", "0", "1", "0.3"])
@pytest.mark.parametrize("kind, rank", _KINDS, ids=["ginibre", "pure", "rank-k:1", "rank-k:2"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_qepi_blocks_match_reference(monkeypatch, d, kind, rank, tau):
    # Blocks of 7 put boundaries after trials 6 and 13.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    cfg = TrialConfig(d=d, state_kind=kind, rank=rank, tau=tau, trials=16, seed=29)
    records, _ = run_experiment("qepi", cfg)
    assert_matches_reference("qepi", cfg, records)


@pytest.mark.parametrize("tau", _TAUS, ids=["random", "0", "1", "0.3"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_concavity_blocks_match_reference(monkeypatch, d, tau):
    monkeypatch.setitem(harness._BLOCK_SIZE, "concavity", 7)
    cfg = TrialConfig(d=d, tau=tau, trials=16, seed=31)
    records, _ = run_experiment("concavity", cfg)
    assert_matches_reference("concavity", cfg, records)


@pytest.mark.parametrize("experiment, d", [("qepi", 2), ("concavity", 4)])
def test_full_blocks_match_reference_and_parallel(experiment, d):
    # Four full-size blocks and a partial one: enough for two workers to share.
    cfg = TrialConfig(d=d, trials=4 * harness._BLOCK_SIZE[experiment] + 3, seed=37)
    serial, summary1 = run_experiment(experiment, cfg, parallel=1)
    parallel, summary2 = run_experiment(experiment, cfg, parallel=2)
    assert_matches_reference(experiment, cfg, serial)
    assert parallel == serial
    assert summary1 == summary2


def test_failure_mid_block_names_its_trial(monkeypatch):
    cfg = TrialConfig(d=3, trials=600, seed=41)
    target = 300  # inside the first block of 512
    target_tau = run_qepi_trial(cfg, target).tau
    real = harness.partial_swap_closed_stack

    def fails_on_target(r1, r2, tau):
        if target_tau in tau:
            raise ValidationError("smallest eigenvalue -1.0e-03 below -tol 1.0e-10")
        return real(r1, r2, tau)

    monkeypatch.setattr(harness, "partial_swap_closed_stack", fails_on_target)
    with pytest.raises(ValidationError) as err:
        run_experiment("qepi", cfg)
    key = (41, harness._STREAM_BASE["qepi"] + target)
    assert str(err.value) == f"qepi trial {target}, stream key {key}: smallest eigenvalue -1.0e-03 below -tol 1.0e-10"
    assert isinstance(err.value.__cause__, ValidationError)
