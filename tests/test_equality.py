"""Equality points: inputs at which a slack is 0 in exact arithmetic, run
through the package's kernels at a grid of tau (and of kappa where the
check has one). Near such points the slacks are smallest, so a kernel that
is off by more than round-off shows here first.

* qepi at rho1 = rho2 = rho: the commutator term of the addition rule
  vanishes, the output is rho, and every entropy-power and majorization
  slack is 0 at every tau and kappa.
* The two-environment conjecture at Phi+ on (X1, E1) and on (X2, E2), with
  e = d: the traced-out output Y' purifies (Y, E1, E2) and is maximally
  mixed, so S(Y|E1E2) = ln d - 2 ln d = -ln d = S(X1|E1) = S(X2|E2), and the
  slack is 0 at every tau.
"""

import numpy as np
import pytest

from qudit_epi.channels import partial_swap_closed_stack
from qudit_epi.conditional import _two_env_slacks
from qudit_epi.harness import TrialConfig, _qepi_checks
from qudit_epi.states import make_density_stack

from oracles import RandomSource, sample_state

TAUS = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])


def _phi_plus(d):
    """|Phi+><Phi+| on (X, E), Phi+ = sum_i |i>|i> / sqrt(d)."""
    phi = np.eye(d).reshape(d * d) / np.sqrt(d)
    return np.outer(phi, phi).astype(complex)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_environment_slack_is_zero_at_phi_plus_pairs(d):
    phi = make_density_stack(np.broadcast_to(_phi_plus(d), (len(TAUS), d * d, d * d)).copy())
    slacks = _two_env_slacks(phi, phi, TAUS, d)
    assert slacks.shape == TAUS.shape
    assert np.abs(slacks).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["ginibre", "pure"])
def test_qepi_slacks_are_zero_at_equal_inputs(d, kind):
    # Three drawn states, each at every tau of the grid, through the closed
    # form and qepi's checks at the kappa grid 0, k1/2, k1.
    gen = RandomSource(24, d).generator()
    states = np.stack([sample_state(gen, d, kind).mat for _ in range(3)]).repeat(len(TAUS), axis=0)
    taus = np.tile(TAUS, 3)
    rho, lam = make_density_stack(states)
    _, lam_out = partial_swap_closed_stack(rho, rho, taus)
    block = _qepi_checks(TrialConfig(d=d), range(len(taus)), taus.tolist(), lam, lam, lam_out)
    assert sorted(block.slacks) == ["qepi.k0", "qepi.k1", "qepi.k2", "qepi_majorization"]
    for key, column in block.slacks.items():
        assert np.abs(column).max() <= 1e-13, key
    assert block.passed == [True] * len(taus)
