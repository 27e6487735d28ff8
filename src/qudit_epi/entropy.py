"""Majorization, entropies, entropy-power functionals, and a hill climb over
product measurement bases that searches for the measurement minimizing an
objective, such as a conditional entropy power or an inequality's slack.

Convention: natural logarithm everywhere. The entropy power of order kappa is
exp(kappa * S) with S in nats, so the concavity window upper edge is
1/(ln d)^2. The convention is recorded in run manifests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuditEpiError, ValidationError
from .measurement import PROB_FLOOR, condition_projective_all
from .rand import RandomSource, complex_gaussian, haar_unitary
from .states import DensityMatrix, MultipartiteState, eigenvalues_descending, partial_trace

# Budget of one climb_product_basis search.
CLIMB_RESTARTS = 3
CLIMB_REFINE_STEPS = 10
CLIMB_STEP_SCALE = 0.2

MAJORIZATION_TOL = 1e-9
DISTRIBUTION_NEG_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-9

__all__ = [
    "prefix_slack",
    "prefix_slack_rows",
    "entropy_nats",
    "entropy_nats_rows",
    "majorizes",
    "shannon_entropy",
    "von_neumann_entropy",
    "entropy_power",
    "kappa_bounds",
    "conditional_vn_entropy",
    "expected_entropy_power",
    "projective_entropy_power",
    "climb_product_basis",
]


def prefix_slack(dominating: np.ndarray, dominated: np.ndarray) -> tuple[float, float]:
    """Majorization prefix comparison of two descending-sorted vectors.

    Returns (min_k sum(dominating[:k]) - sum(dominated[:k]), total difference).
    A nonnegative first value (up to tolerance) means dominated < dominating
    in the majorization order.
    """
    diff = np.cumsum(dominating) - np.cumsum(dominated)
    return float(diff.min()), float(diff[-1])


def prefix_slack_rows(dominating: np.ndarray, dominated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`prefix_slack` of each row pair of two (N, d) stacks, as two (N,) arrays."""
    diff = np.cumsum(dominating, axis=1) - np.cumsum(dominated, axis=1)
    return diff.min(axis=1), diff[:, -1]


def entropy_nats(p) -> float:
    """Shannon entropy -sum p ln p in nats; zero entries contribute nothing.

    Unvalidated: the caller guarantees p >= 0 (see :func:`shannon_entropy`).
    """
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def entropy_nats_rows(p: np.ndarray) -> np.ndarray:
    """:func:`entropy_nats` of each row of an (N, d) stack, as an (N,) array.

    Zero entries add an exact 0.0 term instead of being dropped. Rows of
    fewer than 8 entries, numpy's pairwise-summation block, sum in the same
    order as entropy_nats, so each value equals it bit for bit; longer rows
    may differ in the last bit.
    """
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=1)


def majorizes(n, m, tol: float = MAJORIZATION_TOL) -> bool:
    """True iff m is majorized by n (every prefix of n↓ dominates m↓'s).

    Vectors of unequal length are zero-padded; totals must agree within tol or
    the comparison is refused outright.
    """
    nv = np.asarray(n, dtype=np.float64)
    mv = np.asarray(m, dtype=np.float64)
    size = max(len(nv), len(mv))
    nv = np.pad(nv, (0, size - len(nv)))
    mv = np.pad(mv, (0, size - len(mv)))
    nv = np.sort(nv)[::-1]
    mv = np.sort(mv)[::-1]
    min_slack, total_diff = prefix_slack(nv, mv)
    if abs(total_diff) > tol:
        raise QuditEpiError(f"totals differ by {total_diff!r} (> {tol:.1e})")
    return min_slack >= -tol


def shannon_entropy(p) -> float:
    """-sum p ln p in nats with 0 ln 0 = 0; validates p as a distribution."""
    v = np.asarray(p, dtype=np.float64)
    if v.size and float(v.min()) < -DISTRIBUTION_NEG_TOL:
        raise ValidationError(f"negative entry {float(v.min())!r}")
    total = float(v.sum())
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        raise ValidationError(f"entries sum to {total!r}")
    return entropy_nats(np.clip(v, 0.0, None))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum, in nats; zero for pure states, ln d for I/d."""
    return entropy_nats(eigenvalues_descending(rho))


def entropy_power(x, kappa: float) -> float:
    """exp(kappa * S(x)) for a state or a probability vector (e.g. a spectrum).

    Permutation-symmetric, Schur concave, and confined to [1, d^kappa].
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if isinstance(x, DensityMatrix):
        s = von_neumann_entropy(x)
    else:
        s = shannon_entropy(x)
    return math.exp(kappa * s)


def kappa_bounds(d: int) -> tuple[float, float]:
    """(1/(ln d)^2, 1/(d-1)): the concavity windows of the two entropic
    functionals studied here; only the first drives inequality checks."""
    if d < 2:
        raise QuditEpiError(f"need d >= 2, got {d}")
    return 1.0 / math.log(d) ** 2, 1.0 / (d - 1)


def conditional_vn_entropy(s: MultipartiteState) -> float:
    """S(AB) - S(B) for a bipartite state; negative for entangled inputs."""
    if len(s.dims) != 2:
        raise QuditEpiError(f"expected a bipartite state, got dims {s.dims}")
    s_ab = von_neumann_entropy(s.state)
    s_b = von_neumann_entropy(partial_trace(s, (1,)).state)
    return s_ab - s_b


def expected_entropy_power(outcomes, kappa: float) -> float:
    """Probability-weighted entropy power over measurement outcomes.

    Negligible outcomes (no state) contribute zero.
    """
    total = 0.0
    for o in outcomes:
        if o.negligible:
            continue
        total += o.probability * entropy_power(o.state, kappa)
    return total


def projective_entropy_power(rho4s, bases, kappa: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Outcome probabilities and conditional entropy powers of projective
    measurements on several states at once: the climb objective's kernel.

    rho4s[i] is a (dx, de_i, dx, de_i)-reshaped state, measured in the columns
    of bases[i]; every state has the same dx. The conditioned blocks of all
    states go through one stacked eigvalsh. Returns one (probabilities,
    entropy powers) pair of arrays per state; outcomes at or below PROB_FLOOR
    read 0 in both, so they drop out of every probability-weighted sum.
    Unvalidated: the validated route is measurement.condition_all.
    """
    blocks = np.concatenate([condition_projective_all(r, b) for r, b in zip(rho4s, bases)])
    probs = np.trace(blocks, axis1=1, axis2=2).real
    kept = probs > PROB_FLOOR
    lam = np.linalg.eigvalsh(blocks / np.where(kept, probs, 1.0)[:, None, None])
    powers = np.where(kept, np.exp(kappa * entropy_nats_rows(np.clip(lam, 0.0, None))), 0.0)
    probs = np.where(kept, probs, 0.0)
    splits = np.cumsum([b.shape[1] for b in bases[:-1]])
    return list(zip(np.split(probs, splits), np.split(powers, splits)))


def _unitary_step(gen: np.random.Generator, d: int, scale: float) -> np.ndarray:
    # exp(i * scale * H) with H drawn GUE-style; computed by eigendecomposition.
    a = complex_gaussian(gen, d, d)
    h = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def climb_product_basis(objective, start, source: RandomSource) -> tuple[float, list[np.ndarray]]:
    """Random-restart hill climb of objective(factors) over product bases
    U1 (x) ... (x) Un, one unitary factor per local environment.

    Restart 0 starts at the factors `start`; restart r >= 1 starts at Haar
    factors of the same dimensions. Each restart then takes
    CLIMB_REFINE_STEPS accept-if-lower steps: step k rotates factor
    j = k mod n, Uj <- Uj exp(i * CLIMB_STEP_SCALE * H). Restart r draws from
    the stream source.derive(r). Returns the lowest value found and its
    factors (ties keep the lowest r), so the value is never above
    objective(start); it is only an upper bound on the minimum over the
    product family.
    """
    best_value, best_factors = math.inf, None
    for r in range(CLIMB_RESTARTS):
        gen = source.derive(r).generator()
        factors = list(start) if r == 0 else [haar_unitary(u.shape[0], gen) for u in start]
        value = objective(factors)
        for step in range(CLIMB_REFINE_STEPS):
            j = step % len(factors)
            candidate = factors.copy()
            candidate[j] = factors[j] @ _unitary_step(gen, factors[j].shape[0], CLIMB_STEP_SCALE)
            cand_value = objective(candidate)
            if cand_value < value:
                factors, value = candidate, cand_value
        if value < best_value:
            best_value, best_factors = value, factors
    return best_value, best_factors
