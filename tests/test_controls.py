"""Positive controls: inputs that drop one hypothesis of the paper; a third
route to the theorem's slack; and the theorem with trivial environments,
which is qepi.

Each control runs through the package's kernels and its check functions
(``harness._qepi_checks``, ``harness._measured_slacks``,
``harness._concavity_checks`` and ``states.mixture_majorization_rows``), has
a closed-form negative slack, and must count as a violation through
``harness._verdict`` and ``summarize``; a twin that keeps the hypothesis must
pass.
"""

import math

import numpy as np
import pytest

from qudit_epi.channels import partial_swap_closed_stack, partial_swap_global, partial_swap_joint_stack
from qudit_epi.conditional import _condition_bilocal, _kron_pairs, _pair_weights, _theorem_settings
from qudit_epi.harness import (
    TrialBlock,
    TrialConfig,
    _concavity_checks,
    _kappa_grid,
    _measured_slacks,
    _qepi_checks,
    _verdict,
    kappa_bounds,
    summarize,
)
from qudit_epi.measurement import check_complete, condition_all_stack
from qudit_epi.states import make_density_stack, mixture_majorization_rows

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


def _qepi_blocks(joint, taus):
    """The qepi block of joint (X1, X2) inputs at each of KAPPAS, by ``harness._qepi_checks``."""
    _, (lam_out, lam1, lam2) = partial_swap_joint_stack(joint, taus, 2)
    trials = range(len(taus))
    return [_qepi_checks(TrialConfig(d=2, kappa=k), trials, taus.tolist(), lam1, lam2, lam_out) for k in KAPPAS]


def test_entangled_inputs_violate_qepi_at_the_closed_form():
    for kappa, block in zip(KAPPAS, _qepi_blocks(_entangled_inputs(TAUS), TAUS)):
        for i, tau in enumerate(TAUS):
            assert abs(block.slacks["qepi_majorization"][i] + min(tau, 1 - tau)) <= 1e-12
            assert abs(block.slacks["qepi.k0"][i] - (1 - math.exp(kappa * _binary_entropy(tau)))) <= 1e-12
        assert block.pass_flags["qepi.k0"] == block.passed == [False] * len(TAUS)
        summary = summarize([block])
        assert (summary.trials, summary.violations) == (len(TAUS), len(TAUS))
        assert summary.max_residual <= 1e-12


def test_product_twin_with_the_same_marginals_passes():
    for block in _qepi_blocks(_product_twin(TAUS), TAUS):
        assert block.passed == [True] * len(TAUS)
        assert summarize([block]).violations == 0


def _joint(rho1, rho2, d):
    """rho1 (x) rho2 on (X1, X2, E1, E2), row by row, of (X1, E1) and (X2, E2) stacks."""
    n, e1, e2 = len(rho1), rho1.shape[-1] // d, rho2.shape[-1] // d
    joint = np.einsum("naebf,ncgdh->nacegbdfh", rho1.reshape(n, d, e1, d, e1), rho2.reshape(n, d, e2, d, e2))
    return joint.reshape(n, d * d * e1 * e2, d * d * e1 * e2)


def _entangled_basis(taus):
    """Per tau, the E1E2 basis whose columns are conj(psi), conj(psi_perp),
    |00> and |11>, with psi = sqrt(tau)|01> - i sqrt(1 - tau)|10> and
    psi_perp = sqrt(1 - tau)|01> + i sqrt(tau)|10>."""
    s, c = np.sqrt(taus), np.sqrt(1 - taus)
    basis = np.zeros((len(taus), 4, 4), dtype=complex)
    basis[:, 0, 2] = basis[:, 3, 3] = 1
    basis[:, 1, 0], basis[:, 2, 0] = s, 1j * c
    basis[:, 1, 1], basis[:, 2, 1] = c, -1j * s
    return basis


def _measured_block(basis):
    """|Phi+> on (X1, E1) and on (X2, E2) through the partial swap at TAUS,
    the output and both inputs conditioned on E1E2 in the columns of `basis`:
    the theorem's slacks at KAPPAS and the per-trial smallest majorization
    slack as a block through the verdict, and the (19, 4) majorization slacks
    of the outcomes."""
    check_complete(basis)
    phi = np.broadcast_to(np.outer(np.eye(2), np.eye(2)).reshape(1, 4, 4) / 2, (len(TAUS), 4, 4)).astype(complex)
    states, _ = partial_swap_joint_stack(_joint(phi, phi, 2), TAUS, 2)
    probs, negligible, _, _, spectra = condition_all_stack(states.reshape(3, len(TAUS), 2, 4, 2, 4), basis)
    measured = _measured_slacks(KAPPAS, TAUS, *zip(probs[:, :, None], negligible[:, :, None], spectra[:, :, None]))
    lam_out, lam1, lam2 = spectra.reshape(3, -1, 2)
    majorization, totals = mixture_majorization_rows(TAUS.repeat(4), lam1, lam2, lam_out)
    majorization, totals = majorization.reshape(len(TAUS), 4), totals.reshape(len(TAUS), 4)
    slacks = {f"theorem_measured.k{t}": column for t, column in enumerate(measured.T.tolist())}
    slacks["lemma_majorization"] = majorization.min(axis=1).tolist()
    residuals = {"major_total": totals.max(axis=1).tolist()}
    flags = _verdict(TrialConfig(d=2), slacks, residuals)
    trials = range(len(TAUS))
    return TrialBlock("theorem", trials, TAUS.tolist(), KAPPAS, slacks, residuals, flags, [0] * len(TAUS)), majorization


def test_joint_environment_measurement_violates_the_theorem_at_the_closed_form():
    block, majorization = _measured_block(_entangled_basis(TAUS))
    for i, tau in enumerate(TAUS):
        m = min(tau, 1 - tau)
        assert np.abs(majorization[i] - [-m, -m, 0.0, 0.0]).max() <= 1e-12
        for t, kappa in enumerate(KAPPAS):
            expected = (1 - math.exp(kappa * _binary_entropy(tau))) / 2
            assert abs(block.slacks[f"theorem_measured.k{t}"][i] - expected) <= 1e-12
    for key in block.slacks:
        assert block.pass_flags[key] == [False] * len(TAUS)
    summary = summarize([block])
    assert (summary.trials, summary.violations) == (len(TAUS), len(TAUS))
    assert summary.max_residual <= 1e-12


def test_product_measurement_of_the_same_inputs_passes():
    block, majorization = _measured_block(np.broadcast_to(np.eye(4, dtype=complex), (len(TAUS), 4, 4)))
    # A prefix slack is at most the total difference: 0 where majorized.
    assert np.abs(majorization).max() <= 1e-12
    for i, tau in enumerate(TAUS):
        for t, kappa in enumerate(KAPPAS):
            expected = (math.exp(kappa * _binary_entropy(tau)) - 1) / 2
            assert abs(block.slacks[f"theorem_measured.k{t}"][i] - expected) <= 1e-12
    assert block.passed == [True] * len(TAUS)
    assert summarize([block]).violations == 0


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3), (2, 4, 4)])
def test_joint_state_route_gives_the_theorems_slack(dims):
    # The theorem's route: the global channel on the two inputs, conditioned
    # at the Haar pair. The joint route: the channel on their (X1, X2, E1,
    # E2) product, every state conditioned once on E1E2 at U1 (x) U2.
    d, e1, e2 = dims
    cfg = TrialConfig(d=d, d_e1=e1, d_e2=e2)
    kappas = _kappa_grid(cfg, "theorem_measured")[0]
    taus, rho1, rho2, u1, u2 = _theorem_settings(cfg, "theorem", range(200))
    tau = np.array(taus)
    out, _ = partial_swap_global(rho1, rho2, tau, d)
    (q1, neg1, _, _, lam1), (q2, neg2, _, _, lam2), (_, neg, _, _, lam), skip = _condition_bilocal(
        d, rho1, rho2, out, u1[:, None], u2[:, None]
    )
    q12 = (q1[..., :, None] * q2[..., None, :]).reshape(neg.shape)
    theorem = _measured_slacks(kappas, taus, (q12, skip.reshape(neg.shape), lam), (q1, neg1, lam1), (q2, neg2, lam2))

    states, _ = partial_swap_joint_stack(_joint(rho1, rho2, d), tau, d)
    e = e1 * e2
    probs, negligible, _, _, spectra = condition_all_stack(
        states.reshape(3, len(taus), 1, d, e, d, e), _kron_pairs(u1, u2)[:, None]
    )
    joint = _measured_slacks(kappas, taus, *zip(probs, negligible, spectra))
    assert joint.shape == theorem.shape == (len(taus), len(kappas))
    assert np.abs(joint - theorem).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 6])
@pytest.mark.parametrize("kind", ["ginibre", "pure"])
def test_the_theorem_with_trivial_environments_is_qepi(d, kind):
    # With d_e1 = d_e2 = 1 every measurement has one certain outcome, so the
    # theorem's route (the global channel, conditioning, _measured_slacks)
    # and qepi's (the addition rule on the states, _qepi_checks) give one slack.
    cfg = TrialConfig(d=d, d_e1=1, d_e2=1, state_kind=kind)
    trials = range(200)
    taus, rho1, rho2, u1, u2 = _theorem_settings(cfg, "theorem", trials)
    tau = np.array(taus)
    _, lam_out = partial_swap_closed_stack(rho1, rho2, tau)
    qepi = _qepi_checks(cfg, trials, taus, make_density_stack(rho1)[1], make_density_stack(rho2)[1], lam_out)

    out, _ = partial_swap_global(rho1, rho2, tau, d)
    (q1, neg1, _, _, lam1), (q2, neg2, _, _, lam2), (_, neg, _, _, lam), skip = _condition_bilocal(
        d, rho1, rho2, out, u1[:, None], u2[:, None]
    )
    grids = (_pair_weights(q1, q2), skip.reshape(neg.shape), lam), (q1, neg1, lam1), (q2, neg2, lam2)
    theorem = _measured_slacks(qepi.kappas, taus, *grids)
    assert theorem.shape == (len(taus), 3)
    for t in range(3):
        assert np.abs(np.array(qepi.slacks[f"qepi.k{t}"]) - theorem[:, t]).max() <= 1e-13


def _var_log(p):
    """Var_p(ln p) of a probability vector with no zero entry."""
    logs = np.log(p)
    return float(p @ logs**2 - (p @ logs) ** 2)


def _concavity_extremal(d):
    """(p, kappa*, v): p = (a, (1 - a)/(d - 1), ...) at the a in (1/d, 1) that
    maximizes Var_p(ln p), found by golden-section search; kappa* = 1/Var, the
    largest kappa at which exp(kappa H) is concave; and v = p (ln p - sum p ln p),
    the direction along which its Hessian turns positive first above kappa*."""

    def point(a):
        return np.array([a] + [(1 - a) / (d - 1)] * (d - 1))

    lo, hi = 1 / d, 1 - 1e-9
    ratio = (math.sqrt(5) - 1) / 2
    while hi - lo > 1e-12:
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        lo, hi = (lo, b) if _var_log(point(a)) > _var_log(point(b)) else (a, hi)
    p = point((lo + hi) / 2)
    return p, 1 / _var_log(p), p * (np.log(p) - p @ np.log(p))


def _concavity_pair_block(d, kappa, scale):
    """(config, concavity block, eps) of the pair p +- eps v of
    :func:`_concavity_extremal` at kappa, with eps = scale min(p)/max|v|."""
    p, _, v = _concavity_extremal(d)
    eps = scale * p.min() / np.abs(v).max()
    cfg = TrialConfig(d=d, kappa=kappa, exploratory_kappa=kappa > kappa_bounds(d))
    return cfg, _concavity_checks(cfg, range(1), [0.5], (p + eps * v)[None], (p - eps * v)[None]), eps


_EXTREMAL = {2: (0.916778, 2.2767), 3: (0.876696, 1.3127), 4: (0.851495, 0.9770), 6: (0.819953, 0.6934)}


@pytest.mark.parametrize("d", sorted(_EXTREMAL))
def test_concavity_above_kappa_star_fails_at_the_extremal_pair(d):
    p, kappa_star, v = _concavity_extremal(d)
    a, expected_star = _EXTREMAL[d]
    assert abs(p[0] - a) <= 1e-6 and abs(kappa_star - expected_star) <= 1e-4
    assert abs(v.sum()) <= 1e-15  # v keeps p + eps v on the simplex
    assert kappa_star > kappa_bounds(d)

    kappa = 1.2 * kappa_star
    cfg, block, _ = _concavity_pair_block(d, kappa, 1e-2)
    (slack,) = block.slacks["concavity.k0"]
    assert slack < 0
    # Above the window the slack is a soft diagnostic: no flag, no violation.
    assert block.pass_flags == {} and summarize([block]).violations == 0
    # As a hard check it goes red.
    hard = _verdict(cfg, block.slacks, {})
    assert hard == {"concavity.k0": [False]}
    assert summarize([block._replace(pass_flags=hard)]).violations == 1

    # At the closed form: the second-order term of f = exp(kappa H) along v,
    # f(p) - (f(p + eps v) + f(p - eps v))/2 = -eps^2 f''/2 + O(eps^4), with
    # f'' = kappa f(p) (kappa (v . ln p)^2 - sum v^2/p).
    _, block, eps = _concavity_pair_block(d, kappa, 1e-3)
    f = math.exp(kappa * -(p @ np.log(p)))
    second = kappa * f * (kappa * (v @ np.log(p)) ** 2 - (v**2 / p).sum())
    (slack,) = block.slacks["concavity.k0"]
    assert abs(slack / (-eps**2 * second / 2) - 1) <= 1e-6


@pytest.mark.parametrize("d", sorted(_EXTREMAL))
def test_concavity_in_the_window_passes_at_the_extremal_pair(d):
    _, block, _ = _concavity_pair_block(d, kappa_bounds(d), 1e-2)
    assert block.slacks["concavity.k0"][0] > 0
    assert block.pass_flags == {"concavity.k0": [True]} and block.passed == [True]
    assert summarize([block]).violations == 0
