"""The four hot kernels against naive in-test references.

The addition rule lives in `channels`, projective conditioning in
`measurement`, and the prefix slacks and Shannon entropy in `entropy`.
"""

import math

import numpy as np
import pytest

from qudit_epi.channels import partial_swap_closed_stack
from qudit_epi.entropy import entropy_nats_rows, prefix_slack_rows
from qudit_epi.errors import ValidationError
from qudit_epi.measurement import condition_projective_all
from qudit_epi.states import make_density

from oracles import entropy_nats, partial_swap_closed, prefix_slack


@pytest.fixture
def implementation():
    """Each kernel has one numpy implementation; the `python` parameter names
    it in the test ids, so the ids stay stable."""


pytestmark = [
    pytest.mark.usefixtures("implementation"),
    pytest.mark.parametrize("implementation", ["python"], indirect=True),
]


def _rand_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g @ g.conj().T
    return h / np.trace(h).real


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_pswap_closed_matches_naive(d):
    rng = np.random.default_rng(10 + d)
    rho1 = make_density(_rand_herm(rng, d))
    rho2 = make_density(_rand_herm(rng, d))
    r1, r2 = rho1.mat, rho2.mat
    for tau in (0.0, 0.3, 0.5, 1.0):
        got = partial_swap_closed(rho1, rho2, tau).mat
        want = tau * r1 + (1 - tau) * r2
        if 0 < tau < 1:
            want = want - 1j * math.sqrt(tau * (1 - tau)) * (r1 @ r2 - r2 @ r1)
        assert np.abs(got - want).max() < 1e-13


def test_pswap_closed_endpoints_exact():
    rng = np.random.default_rng(3)
    rho1 = make_density(_rand_herm(rng, 3))
    rho2 = make_density(_rand_herm(rng, 3))
    assert np.array_equal(partial_swap_closed(rho1, rho2, 1.0).mat, rho1.mat)
    assert np.array_equal(partial_swap_closed(rho1, rho2, 0.0).mat, rho2.mat)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_pswap_closed_stack_matches_closed(d):
    rng = np.random.default_rng(20 + d)
    taus = np.array([0.0, 1.0, 0.5, 0.3, rng.uniform()])
    pairs = [(make_density(_rand_herm(rng, d)), make_density(_rand_herm(rng, d))) for _ in taus]
    r1 = np.array([a.mat for a, _ in pairs])
    r2 = np.array([b.mat for _, b in pairs])
    sym, eigs = partial_swap_closed_stack(r1, r2, taus)
    for i, (tau, (rho1, rho2)) in enumerate(zip(taus.tolist(), pairs)):
        out = partial_swap_closed(rho1, rho2, tau)
        assert np.array_equal(sym[i], out.mat)
        assert np.array_equal(eigs[i], out.eigenvalues_ascending())
    with pytest.raises(ValidationError, match="mixing parameters must be in"):
        partial_swap_closed_stack(r1, r2, taus + 0.5)


@pytest.mark.parametrize("dx,de", [(2, 2), (3, 2), (4, 3), (2, 4)])
def test_condition_projective_matches_naive(dx, de):
    rng = np.random.default_rng(dx * 10 + de)
    rho = _rand_herm(rng, dx * de).reshape(dx, de, dx, de)
    q, _ = np.linalg.qr(rng.standard_normal((de, de)) + 1j * rng.standard_normal((de, de)))
    got = condition_projective_all(rho, q)
    for j in range(de):
        psi = q[:, j]
        want = np.zeros((dx, dx), dtype=complex)
        for a in range(dx):
            for b in range(dx):
                for e in range(de):
                    for f in range(de):
                        want[a, b] += psi[e].conjugate() * rho[a, e, b, f] * psi[f]
        assert np.abs(got[j] - want).max() < 1e-13


def test_prefix_slack():
    hi = np.array([0.7, 0.3, 0.0])
    lo = np.array([0.5, 0.3, 0.2])
    slack, total = prefix_slack(hi, lo)
    assert slack == pytest.approx(0.0, abs=1e-15)  # k=3 prefix gap is 0
    assert total == pytest.approx(0.0, abs=1e-15)
    slack, total = prefix_slack(np.array([0.5, 0.5]), np.array([0.6, 0.4]))
    assert slack == pytest.approx(-0.1)
    assert total == pytest.approx(0.0, abs=1e-15)


def test_entropy_nats():
    assert entropy_nats(np.array([1.0, 0.0])) == 0.0
    assert entropy_nats(np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-15)
    assert entropy_nats(np.ones(3) / 3) == pytest.approx(math.log(3), abs=1e-14)


def test_row_kernels_match_scalar():
    rng = np.random.default_rng(5)
    for d in range(2, 8):
        p = rng.dirichlet(np.ones(d), size=40)
        p[::3, -1] = 0.0  # exact zeros, dropped by entropy_nats
        p[1::3, 1:] = 0.0
        q = np.sort(rng.dirichlet(np.ones(d), size=40), axis=1)[:, ::-1]
        ent = entropy_nats_rows(p)
        slack, total = prefix_slack_rows(p, q)
        for i in range(len(p)):
            assert repr(float(ent[i])) == repr(entropy_nats(p[i]))
            assert (float(slack[i]), float(total[i])) == prefix_slack(p[i], q[i])
