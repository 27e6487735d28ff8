"""Positive controls: inputs that drop one hypothesis of the paper.

Each control runs through the package's kernels, has a closed-form negative
slack, and must count as a violation through ``harness._verdict`` and
``summarize``; a twin that keeps the hypothesis must pass.
"""

import math

import numpy as np

from qudit_epi.channels import partial_swap_joint_stack
from qudit_epi.harness import TrialBlock, TrialConfig, _entropy_powers, _verdict, kappa_bounds, summarize
from qudit_epi.states import entropy_nats_rows, prefix_slack_rows

TAUS = np.linspace(0.05, 0.95, 19)
KAPPAS = tuple(np.linspace(0.0, kappa_bounds(2), 4)[1:].tolist())


def _binary_entropy(tau):
    return -tau * math.log(tau) - (1 - tau) * math.log(1 - tau)


def _entangled_inputs(taus):
    """|psi><psi| on (X1, X2) with psi = sqrt(tau)|01> - i sqrt(1 - tau)|10>,
    one row per tau. The swap maps psi to |01>, so the channel's output is
    pure while each input marginal has spectrum (tau, 1 - tau)."""
    psi = np.zeros((len(taus), 4), dtype=complex)
    psi[:, 1] = np.sqrt(taus)
    psi[:, 2] = -1j * np.sqrt(1 - taus)
    return psi[:, :, None] * psi[:, None, :].conj()


def _product_twin(taus):
    """diag(tau, 1 - tau) (x) diag(1 - tau, tau): the entangled inputs'
    marginals as a product state."""
    return np.stack([np.diag(np.kron([t, 1 - t], [1 - t, t])) for t in taus]).astype(complex)


def _qepi_block(joint, taus):
    """The qepi slacks, residual and verdict of joint (X1, X2) inputs at
    KAPPAS, computed as ``harness._qepi_block`` computes them from spectra."""
    _, (lam_out, lam1, lam2) = partial_swap_joint_stack(joint, taus, 2)
    t = taus[:, None]
    majorization, totals = prefix_slack_rows(t * lam1 + (1.0 - t) * lam2, lam_out)
    entropies = np.stack([entropy_nats_rows(lam) for lam in (lam1, lam2, lam_out)])
    p1, p2, p_out = _entropy_powers(np.array(KAPPAS)[:, None], entropies[:, None])
    slacks = {"qepi_majorization": majorization.tolist()}
    slacks |= {f"qepi.k{k}": row for k, row in enumerate((p_out - taus * p1 - (1.0 - taus) * p2).tolist())}
    residuals = {"major_total": np.abs(totals).tolist()}
    flags = _verdict(TrialConfig(d=2), slacks, residuals)
    return TrialBlock("qepi", range(len(taus)), taus.tolist(), KAPPAS, slacks, residuals, flags, [0] * len(taus))


def test_entangled_inputs_violate_qepi_at_the_closed_form():
    block = _qepi_block(_entangled_inputs(TAUS), TAUS)
    for i, tau in enumerate(TAUS):
        assert abs(block.slacks["qepi_majorization"][i] + min(tau, 1 - tau)) <= 1e-12
        for k, kappa in enumerate(KAPPAS):
            assert abs(block.slacks[f"qepi.k{k}"][i] - (1 - math.exp(kappa * _binary_entropy(tau)))) <= 1e-12
    assert block.passed == [False] * len(TAUS)
    summary = summarize([block])
    assert (summary.trials, summary.violations) == (len(TAUS), len(TAUS))
    assert summary.max_residual <= 1e-12


def test_product_twin_with_the_same_marginals_passes():
    block = _qepi_block(_product_twin(TAUS), TAUS)
    assert block.passed == [True] * len(TAUS)
    assert summarize([block]).violations == 0
