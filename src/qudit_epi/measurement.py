"""Rank-1 projective measurements on environment subsystems and the states
they condition.

A measurement is the orthonormal basis given by the columns of a unitary; its
outcome j projects the environment onto column j. Conditioning contracts the
joint state against the basis vectors directly (see
:func:`condition_projective_all`), so the projectors are never formed.

Each rule has one owner: :func:`check_complete` is the completeness check of
one basis and of a stack, and :func:`condition_all_stack` the validated
conditioning of stacks of states, the one route the experiments condition
by. Its one-state oracle (``condition_all`` and ``condition_bilocal`` in
``tests/oracles.py``) is held to the same bits by the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .states import eigenvalues_descending_stack, make_density_stack

PROB_FLOOR = 1e-12
COMPLETENESS_TOL = 1e-10
PROB_SUM_TOL = 1e-9

__all__ = [
    "PROB_FLOOR",
    "check_complete",
    "condition_projective_all",
    "condition_all_stack",
]


def check_complete(u: np.ndarray) -> None:
    """Completeness max|U†U - I| <= COMPLETENESS_TOL of a unitary or of each
    matrix of an (..., d, d) stack; the message names the first failing
    residual."""
    residual = np.asarray(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1)))
    bad = residual > COMPLETENESS_TOL
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated conditioning of stacks of states on every outcome of their
    bases, which broadcast as in :func:`condition_projective_all` (the bases
    are not checked; see :func:`check_complete`).

    Returns the (..., n) outcome probabilities, the (..., n) mask of
    negligible outcomes (probability at or below PROB_FLOOR), and the
    (M, dx, dx) conditioned states (each validated by make_density_stack) and
    (M, dx) descending spectra of the other M outcomes, in row-major order.
    Each value is what its state and basis give alone, bit for bit. Each
    state's outcome probabilities must sum to 1 within PROB_SUM_TOL, summed
    by Python's sum in outcome order.
    """
    blocks = condition_projective_all(rho4, bases)
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    negligible = probs <= PROB_FLOOR
    kept = ~negligible
    states, eigs = make_density_stack(blocks[kept] / probs[kept][:, None, None])
    for row in probs.reshape(-1, probs.shape[-1]).tolist():
        _check_normalization(row)
    return probs, negligible, states, eigenvalues_descending_stack(eigs)


def _check_normalization(probabilities) -> None:
    total = float(sum(probabilities))
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"outcome probabilities sum to {total!r}")
