"""Local measurements on environment subsystems and the states they condition.

A measurement set is any list of Kraus elements with sum(M† M) = I. Rank-1
projective sets built from a unitary keep the basis around so conditioning can
take the fast contraction path; general Kraus sets go through the full
(I ⊗ M) rho (I ⊗ M†) route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndex,
    DimensionMismatch,
    IncompleteMeasurement,
    NegligibleOutcome,
    NotDistribution,
    NotUnitary,
)
from .states import (
    DensityMatrix,
    MultipartiteState,
    Spectrum,
    eigenvalues_descending,
    make_density,
)

PROB_FLOOR = 1e-12
COMPLETENESS_TOL = 1e-10
PROB_SUM_TOL = 1e-9

__all__ = [
    "PROB_FLOOR",
    "MeasurementSet",
    "ConditionalOutcome",
    "kraus_set",
    "projective_from_unitary",
    "trivial_measurement",
    "condition_projective_all",
    "condition",
    "condition_all",
    "condition_bilocal",
    "conditional_spectrum",
]


@dataclass(frozen=True)
class MeasurementSet:
    """Kraus elements {M_j} on one subsystem; complete by construction.

    `basis` is set when the elements are rank-1 projectors onto the columns of
    a unitary, and None otherwise.
    """

    dim: int
    elements: tuple[np.ndarray, ...]
    basis: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.elements)


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


def kraus_set(elements) -> MeasurementSet:
    """Validate a list of Kraus elements into a MeasurementSet."""
    els = tuple(np.asarray(m, dtype=np.complex128) for m in elements)
    if not els:
        raise IncompleteMeasurement("empty measurement set")
    d = els[0].shape[0]
    for m in els:
        if m.shape != (d, d):
            raise DimensionMismatch(f"element shape {m.shape} does not match ({d}, {d})")
    total = sum(m.conj().T @ m for m in els)
    residual = float(np.abs(total - np.eye(d)).max())
    if residual > COMPLETENESS_TOL:
        raise IncompleteMeasurement(
            f"sum M†M deviates from identity by {residual:.3e} (> {COMPLETENESS_TOL:.1e})"
        )
    return MeasurementSet(d, els)


def projective_from_unitary(u) -> MeasurementSet:
    """Rank-1 projectors onto the columns of a unitary; complete by construction."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {u.shape}")
    d = u.shape[0]
    residual = float(np.abs(u.conj().T @ u - np.eye(d)).max())
    if residual > COMPLETENESS_TOL:
        raise NotUnitary(f"max|U†U - I| = {residual:.3e} (> {COMPLETENESS_TOL:.1e})")
    projectors = tuple(np.outer(u[:, j], u[:, j].conj()) for j in range(d))
    return MeasurementSet(d, projectors, basis=np.ascontiguousarray(u))


def trivial_measurement(d: int) -> MeasurementSet:
    """The single-outcome measurement {I}."""
    return MeasurementSet(d, (np.eye(d, dtype=np.complex128),), basis=None)


def _split_xe(s: MultipartiteState) -> tuple[int, int]:
    if len(s.dims) != 2:
        raise DimensionMismatch(f"conditioning expects a bipartite (X, E) state, got dims {s.dims}")
    return s.dims


def _condition_general(rho4: np.ndarray, m: np.ndarray) -> np.ndarray:
    # Tr_E[(I ⊗ M) rho (I ⊗ M†)] with row/col env axes contracted against M.
    return np.einsum("ei,aibj,ej->ab", m, rho4, m.conj())


def condition_projective_all(rho4: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Unnormalized conditional blocks for a rank-1 projective basis.

    rho4  : (dx, de, dx, de) array, row/col axes split as (system, env).
    basis : (de, n) array whose columns are the measurement vectors.
    Returns (n, dx, dx) with out[j] = <psi_j| rho |psi_j> contracted over env.
    """
    de, n = basis.shape
    dx = rho4.shape[0]
    # out[j,a,b] = sum_{e,f} conj(basis[e,j]) rho4[a,e,b,f] basis[f,j]
    env_first = rho4.transpose(1, 3, 0, 2).reshape(de * de, dx * dx)
    pairs = (basis.conj()[:, None, :] * basis[None, :, :]).reshape(de * de, n)
    return (pairs.T @ env_first).reshape(n, dx, dx)


def _outcome(index, block: np.ndarray) -> ConditionalOutcome:
    p = float(np.trace(block).real)
    if p <= PROB_FLOOR:
        return ConditionalOutcome(index, p, None)
    return ConditionalOutcome(index, p, make_density(block / p))


def condition(s: MultipartiteState, m: MeasurementSet, j: int) -> ConditionalOutcome:
    """Condition the X part of an (X, E) state on outcome j of a measurement on E."""
    dx, de = _split_xe(s)
    if m.dim != de:
        raise DimensionMismatch(f"measurement dim {m.dim} does not match environment dim {de}")
    if not 0 <= j < len(m):
        raise BadIndex(f"outcome {j} out of range for {len(m)} outcomes")
    rho4 = s.state.mat.reshape(dx, de, dx, de)
    if m.basis is not None:
        block = condition_projective_all(rho4, m.basis[:, j : j + 1])[0]
    else:
        block = _condition_general(rho4, m.elements[j])
    return _outcome(j, block)


def condition_all(s: MultipartiteState, m: MeasurementSet) -> list[ConditionalOutcome]:
    """All outcomes of a measurement on E; checks probability normalization."""
    dx, de = _split_xe(s)
    if m.dim != de:
        raise DimensionMismatch(f"measurement dim {m.dim} does not match environment dim {de}")
    rho4 = s.state.mat.reshape(dx, de, dx, de)
    if m.basis is not None:
        blocks = condition_projective_all(rho4, m.basis)
    else:
        blocks = [_condition_general(rho4, el) for el in m.elements]
    outcomes = [_outcome(j, block) for j, block in enumerate(blocks)]
    _check_normalization(o.probability for o in outcomes)
    return outcomes


def condition_bilocal(
    s: MultipartiteState, m1: MeasurementSet, m2: MeasurementSet
) -> list[list[ConditionalOutcome]]:
    """Outcome grid for local measurements on both environments of (Y, E1, E2).

    Entry [j][k] carries the joint probability p_jk and the conditioned Y
    state; when the environment marginal is a product, p_jk factorizes into
    the marginal outcome probabilities (the harness asserts that, not us).
    """
    if len(s.dims) != 3:
        raise DimensionMismatch(f"expected a (Y, E1, E2) state, got dims {s.dims}")
    dy, e1, e2 = s.dims
    if m1.dim != e1 or m2.dim != e2:
        raise DimensionMismatch(
            f"measurement dims ({m1.dim}, {m2.dim}) do not match environments ({e1}, {e2})"
        )
    rho4 = s.state.mat.reshape(dy, e1 * e2, dy, e1 * e2)
    n1, n2 = len(m1), len(m2)
    if m1.basis is not None and m2.basis is not None:
        blocks = condition_projective_all(rho4, np.kron(m1.basis, m2.basis))
        grid = [
            [_outcome((j, k), blocks[j * n2 + k]) for k in range(n2)]
            for j in range(n1)
        ]
    else:
        grid = []
        for j in range(n1):
            row = []
            for k in range(n2):
                joint = np.kron(m1.elements[j], m2.elements[k])
                row.append(_outcome((j, k), _condition_general(rho4, joint)))
            grid.append(row)
    _check_normalization(o.probability for row in grid for o in row)
    return grid


def conditional_spectrum(outcome: ConditionalOutcome) -> Spectrum:
    """Eigenvalues of the conditioned state, non-increasing."""
    if outcome.negligible:
        raise NegligibleOutcome(
            f"outcome {outcome.outcome_index} has probability {outcome.probability!r}"
        )
    return eigenvalues_descending(outcome.state)


def _check_normalization(probabilities) -> None:
    total = float(sum(probabilities))
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise NotDistribution(f"outcome probabilities sum to {total!r}")

