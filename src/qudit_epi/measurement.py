"""Rank-1 projective measurements on environment subsystems and the states
they condition.

A measurement is the orthonormal basis given by the columns of a unitary; its
outcome j projects the environment onto column j. Conditioning contracts the
joint state against the basis vectors directly (see
:func:`condition_projective_all`), so the projectors are never formed.

Each rule has one owner: :func:`check_complete` is the completeness check of
one basis and of a stack, and :func:`condition_all` the validated
conditioning that :func:`condition_bilocal` applies in the product basis.
:func:`condition_all_stack` is its stacked twin; the tests hold the two to
the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuditEpiError, ValidationError
from .states import (
    DensityMatrix,
    MultipartiteState,
    as_bipartite,
    eigenvalues_descending,
    eigenvalues_descending_stack,
    make_density,
    make_density_stack,
)

PROB_FLOOR = 1e-12
COMPLETENESS_TOL = 1e-10
PROB_SUM_TOL = 1e-9

__all__ = [
    "PROB_FLOOR",
    "MeasurementSet",
    "ConditionalOutcome",
    "projective_from_unitary",
    "check_complete",
    "condition_projective_all",
    "condition_all",
    "condition_all_stack",
    "condition_bilocal",
    "conditional_spectrum",
]


@dataclass(frozen=True)
class MeasurementSet:
    """Rank-1 projective measurement onto the columns of a validated unitary.

    Outcome j projects onto basis[:, j]; there are as many outcomes as the
    environment dimension.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __len__(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ConditionalOutcome:
    """One measurement outcome: its index, probability, and conditioned state.

    Outcomes at or below PROB_FLOOR carry no state; they are flagged negligible
    and contribute nothing to expected functionals.
    """

    outcome_index: object
    probability: float
    state: DensityMatrix | None

    @property
    def negligible(self) -> bool:
        return self.state is None


def projective_from_unitary(u) -> MeasurementSet:
    """Measurement in the basis of a unitary's columns; complete by construction."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise QuditEpiError(f"expected a square matrix, got {u.shape}")
    check_complete(u)
    return MeasurementSet(np.ascontiguousarray(u))


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


def _outcome(index, block: np.ndarray) -> ConditionalOutcome:
    p = float(np.trace(block).real)
    if p <= PROB_FLOOR:
        return ConditionalOutcome(index, p, None)
    return ConditionalOutcome(index, p, make_density(block / p))


def condition_all(s: MultipartiteState, m: MeasurementSet) -> list[ConditionalOutcome]:
    """Condition the X part of an (X, E) state on every outcome of a
    measurement on E; checks probability normalization."""
    if len(s.dims) != 2:
        raise QuditEpiError(f"conditioning expects a bipartite (X, E) state, got dims {s.dims}")
    dx, de = s.dims
    if m.dim != de:
        raise QuditEpiError(f"measurement dim {m.dim} does not match environment dim {de}")
    blocks = condition_projective_all(s.state.mat.reshape(dx, de, dx, de), m.basis)
    outcomes = [_outcome(j, block) for j, block in enumerate(blocks)]
    _check_normalization(o.probability for o in outcomes)
    return outcomes


def condition_all_stack(
    rho4: np.ndarray, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`condition_all`, with its checks, on stacks of states and bases
    that broadcast as in :func:`condition_projective_all` (the bases are not
    checked; see :func:`check_complete`).

    Returns the (..., n) outcome probabilities, the (..., n) mask of
    negligible outcomes, and the (M, dx, dx) conditioned states and (M, dx)
    descending spectra of the other M outcomes in row-major order, bit for
    bit what condition_all and conditional_spectrum give. Probability totals
    are summed by Python's sum, in outcome order, as condition_all sums them.
    """
    blocks = condition_projective_all(rho4, bases)
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    negligible = probs <= PROB_FLOOR
    kept = ~negligible
    states, eigs = make_density_stack(blocks[kept] / probs[kept][:, None, None])
    for row in probs.reshape(-1, probs.shape[-1]).tolist():
        _check_normalization(row)
    return probs, negligible, states, eigenvalues_descending_stack(eigs)


def condition_bilocal(
    s: MultipartiteState, m1: MeasurementSet, m2: MeasurementSet
) -> list[list[ConditionalOutcome]]:
    """Outcome grid for local measurements on both environments of (Y, E1, E2).

    Entry [j][k] carries the joint probability p_jk and the conditioned Y
    state; when the environment marginal is a product, p_jk factorizes into
    the marginal outcome probabilities (the harness asserts that, not us).
    It is :func:`condition_all` on (Y, E1 E2) in the product basis
    m1 (x) m2, with outcome j * len(m2) + k renamed (j, k).
    """
    if len(s.dims) != 3:
        raise QuditEpiError(f"expected a (Y, E1, E2) state, got dims {s.dims}")
    _, e1, e2 = s.dims
    if m1.dim != e1 or m2.dim != e2:
        raise QuditEpiError(
            f"measurement dims ({m1.dim}, {m2.dim}) do not match environments ({e1}, {e2})"
        )
    n2 = len(m2)
    flat = condition_all(as_bipartite(s, 1), MeasurementSet(np.kron(m1.basis, m2.basis)))
    return [
        [ConditionalOutcome((j, k), o.probability, o.state) for k, o in enumerate(flat[j * n2 : (j + 1) * n2])]
        for j in range(len(m1))
    ]


def conditional_spectrum(outcome: ConditionalOutcome) -> np.ndarray:
    """Eigenvalues of the conditioned state, non-increasing."""
    if outcome.negligible:
        raise QuditEpiError(
            f"outcome {outcome.outcome_index} has probability {outcome.probability!r}, "
            "at or below the floor; it has no conditional state"
        )
    return eigenvalues_descending(outcome.state)


def _check_normalization(probabilities) -> None:
    total = float(sum(probabilities))
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"outcome probabilities sum to {total!r}")
