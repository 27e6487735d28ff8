"""Rank-1 projective measurements on environment subsystems and the states
they condition.

A measurement is the orthonormal basis given by the columns of a unitary; its
outcome j projects the environment onto column j. Conditioning contracts the
joint state against the basis vectors directly (see
:func:`condition_projective_all`), so the projectors are never formed.

Each rule has one owner: :func:`completeness_residual` is max|U†U - I|,
which :func:`check_complete` and ``rand``'s Haar check hold to their own
tolerances, and :func:`condition_all_stack` the validated conditioning of
stacks of states, the one route the experiments condition by; it returns
the conditioned states and their spectra on the outcome grid.
Its one-state oracle (``condition_all`` and ``condition_bilocal`` in
``tests/oracles.py``) is held to the same bits by the tests. Outcome
totals are summed by the one sum rule, ``states.ordered_sum``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .states import make_density_stack, ordered_sum

PROB_FLOOR = 1e-12
COMPLETENESS_TOL = 1e-10
PROB_SUM_TOL = 1e-9

__all__ = [
    "PROB_FLOOR",
    "check_complete",
    "completeness_residual",
    "condition_projective_all",
    "condition_all_stack",
]


def completeness_residual(u: np.ndarray):
    """max|U†U - I| of a matrix, or the (...) array of them of an (..., d, d) stack."""
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


def check_complete(u: np.ndarray) -> None:
    """Completeness max|U†U - I| <= COMPLETENESS_TOL of a unitary or of each
    matrix of an (..., d, d) stack; the message names the first failing
    residual."""
    residual = np.asarray(completeness_residual(u))
    bad = ~(residual <= COMPLETENESS_TOL)  # a NaN fails too
    if bad.any():
        raise ValidationError(f"max|U†U - I| = {residual[bad][0]:.3e} (> {COMPLETENESS_TOL:.1e})")


def condition_projective_all(rho4: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Unnormalized conditional blocks for a rank-1 projective basis.

    rho4  : (..., dx, de, dx, de) array, row/col axes split as (system, env).
    basis : (..., de, n) array whose columns are the measurement vectors.
    Returns (..., n, dx, dx) with out[j] = <psi_j| rho |psi_j> contracted
    over env; leading axes broadcast, and each matrix of a stack equals the
    one its state and basis give alone, bit for bit.
    """
    de, n = basis.shape[-2:]
    dx = rho4.shape[-4]
    # out[j,a,b] = sum_{e,f} conj(basis[e,j]) rho4[a,e,b,f] basis[f,j]
    lead = rho4.ndim - 4
    axes = (*range(lead), lead + 1, lead + 3, lead, lead + 2)
    env_first = rho4.transpose(axes).reshape(*rho4.shape[:lead], de * de, dx * dx)
    pairs = (basis.conj()[..., :, None, :] * basis[..., None, :, :]).reshape(*basis.shape[:-2], de * de, n)
    out = pairs.swapaxes(-1, -2) @ env_first
    return out.reshape(*out.shape[:-2], n, dx, dx)


def condition_all_stack(
    rho4: np.ndarray, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated conditioning of stacks of states on every outcome of their
    bases, which broadcast as in :func:`condition_projective_all` (the bases
    are not checked; see :func:`check_complete`).

    Each state's outcome total, summed by :func:`ordered_sum`, must first be
    within PROB_SUM_TOL of 1. Returns, on the (..., n) outcome grid, the
    outcome probabilities, the mask of negligible outcomes (probability at
    or below PROB_FLOOR), the (...) residuals |total - 1|, and the
    (..., n, dx, dx) conditioned states and (..., n, dx) descending spectra
    that make_density_stack validates and returns, zero at the negligible
    outcomes. Each value is what its state and basis give alone, bit for bit.
    """
    blocks = condition_projective_all(rho4, bases)
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    totals = ordered_sum(probs)
    residuals = np.abs(totals - 1.0)
    bad = ~(residuals <= PROB_SUM_TOL)
    if bad.any():
        raise ValidationError(f"outcome probabilities sum to {float(totals[bad][0])!r}")
    negligible = probs <= PROB_FLOOR
    kept = ~negligible
    states = np.zeros(blocks.shape, dtype=np.complex128)
    spectra = np.zeros(blocks.shape[:-1])
    states[kept], spectra[kept] = make_density_stack(blocks[kept] / probs[kept][:, None, None])
    return probs, negligible, residuals, states, spectra
