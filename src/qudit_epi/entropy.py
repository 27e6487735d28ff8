"""Majorization, entropies, entropy-power functionals, and a hill climb over
product measurement bases that searches for the measurement minimizing an
objective, such as a conditional entropy power or an inequality's slack.

:func:`climb_product_basis` is the one climb: it advances a whole stack of
searches in lockstep, so a caller with one search and the theorem's block of
trials (every kappa and restart of each trial) share it.

Convention: natural logarithm everywhere. The entropy power of order kappa is
exp(kappa * S) with S in nats, so the concavity window upper edge is
1/(ln d)^2. The convention is recorded in run manifests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuditEpiError, ValidationError
from .measurement import PROB_FLOOR, condition_projective_all
from .rand import KeyedStreams, haar_unitaries, haar_unitary
from .states import DensityMatrix, eigenvalues_descending

# Budget of each climb_product_basis search.
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


def projective_entropy_power(rho4s, bases, kappa) -> list[tuple[np.ndarray, np.ndarray]]:
    """Outcome probabilities and conditional entropy powers of projective
    measurements on stacks of states at once: the climb objective's kernel.

    rho4s[i] is a (..., dx, de_i, dx, de_i)-reshaped state stack, measured in
    the columns of the (..., de_i, n_i) basis stack bases[i]; every state has
    the same dx, each state and basis broadcast to the same leading axes for
    every i, and kappa is a float or an array broadcasting against them. The
    conditioned blocks of all states go through one stacked eigvalsh. Returns one (probabilities, entropy powers) pair of
    (..., n_i) arrays per state; outcomes at or below PROB_FLOOR read 0 in
    both, so they drop out of every probability-weighted sum. Each value
    equals what its own state, basis and kappa give alone, bit for bit.
    Unvalidated: the validated route is measurement.condition_all_stack.
    """
    blocks = np.concatenate([condition_projective_all(r, b) for r, b in zip(rho4s, bases)], axis=-3)
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    kept = probs > PROB_FLOOR
    lam = np.linalg.eigvalsh(blocks / np.where(kept, probs, 1.0)[..., None, None])
    entropies = entropy_nats_rows(np.clip(lam, 0.0, None).reshape(-1, lam.shape[-1])).reshape(probs.shape)
    powers = np.where(kept, np.exp(np.asarray(kappa)[..., None] * entropies), 0.0)
    probs = np.where(kept, probs, 0.0)
    splits = np.cumsum([b.shape[-1] for b in bases[:-1]])
    return list(zip(np.split(probs, splits, axis=-1), np.split(powers, splits, axis=-1)))


def climb_product_basis(objective, starts, sources) -> tuple[np.ndarray, list[np.ndarray]]:
    """Random-restart hill climbs of objective over product bases
    U1 (x) ... (x) Un, one unitary factor per local environment, for a stack
    of searches that all advance in lockstep.

    starts[j] is the (*lead, e_j, e_j) stack of the searches' start factor j,
    for at most CLIMB_REFINE_STEPS factors, and sources lists the searches'
    streams, which share one master seed, in row-major order of lead. Each
    search runs CLIMB_RESTARTS restarts: restart 0 starts at its factors in
    `starts`, restart r >= 1 at Haar factors of the same dimensions. Each
    restart then takes CLIMB_REFINE_STEPS accept-if-lower steps: step k
    rotates factor j = k mod n, Uj <- Uj exp(i * CLIMB_STEP_SCALE * H) with H
    drawn GUE-style. Restart r of a search draws its Haar start and then its
    steps from the stream source.derive(r), in one call. No draw depends on
    which steps are accepted, so every climb draws up front. One batched QR
    builds every Haar start (:func:`haar_unitaries`); a restart that fails
    haar_unitary's checks is redrawn by haar_unitary itself, retries
    included. One stacked eigh per factor builds all step rotations, and
    each step scores every climb in one objective call.

    objective(factors) takes the (*lead, CLIMB_RESTARTS, e_j, e_j) stacks of
    every climb's factors and returns their (*lead, CLIMB_RESTARTS) values; it
    is called 1 + CLIMB_REFINE_STEPS times. Returns each search's lowest value
    found, a lead-shaped array, and its factors, one (*lead, e_j, e_j) stack
    per factor (ties keep the lowest r). A value is never above the objective
    at its search's start; it is only an upper bound on the minimum over the
    product family.
    """
    lead = starts[0].shape[:-2]
    dims = [u.shape[-1] for u in starts]
    steps = [k % len(dims) for k in range(CLIMB_REFINE_STEPS)]
    # A Haar start draws the real, then the imaginary parts of each factor's
    # e x e Gaussian; step k then draws those of its factor's Gaussian.
    haar = np.cumsum([0] + [2 * e * e for e in dims]).tolist()
    offsets = np.cumsum([haar[-1]] + [2 * dims[j] ** 2 for j in steps]).tolist()
    draws = np.empty((*lead, CLIMB_RESTARTS, offsets[-1]))
    (seed,) = {source.master_seed for source in sources}
    streams = KeyedStreams(seed)
    for search, source in zip(np.ndindex(lead), sources):
        for r in range(CLIMB_RESTARTS):
            # Restart 0 starts at its given factors and draws only its steps.
            gen = streams.at(source.derive(r).stream_index)
            gen.standard_normal(out=draws[(*search, r)][0 if r else haar[-1] :])

    factors, ok = [], True
    for j, e in enumerate(dims):
        g = draws[..., 1:, haar[j] : haar[j + 1]].reshape(*lead, CLIMB_RESTARTS - 1, 2, e, e)
        u, ok_j = haar_unitaries(g[..., 0, :, :] + 1j * g[..., 1, :, :])
        factors.append(np.concatenate([starts[j][..., None, :, :], u], axis=-3))
        ok = ok & ok_j
    if not np.all(ok):
        # A failed check retries with further draws of the stream, which moves
        # every later draw: redraw the whole restart by the one-climb route.
        for search, source in zip(np.ndindex(lead), sources):
            for r in np.flatnonzero(~ok[search]) + 1:
                gen = streams.at(source.derive(int(r)).stream_index)
                for j, e in enumerate(dims):
                    factors[j][(*search, r)] = haar_unitary(e, gen)
                gen.standard_normal(out=draws[(*search, r)][haar[-1] :])

    rotations = {}
    for j, e in enumerate(dims):
        ks = [k for k, jk in enumerate(steps) if jk == j]
        g = np.stack([draws[..., offsets[k] : offsets[k + 1]].reshape(*lead, CLIMB_RESTARTS, 2, e, e) for k in ks])
        a = g[..., 0, :, :] + 1j * g[..., 1, :, :]
        w, v = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2)
        u = (v * np.exp(1j * CLIMB_STEP_SCALE * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        rotations.update(zip(ks, u))

    values = objective(factors)
    for k, j in enumerate(steps):
        candidate = factors.copy()
        candidate[j] = factors[j] @ rotations[k]
        cand_values = objective(candidate)
        better = cand_values < values
        factors[j] = np.where(better[..., None, None], candidate[j], factors[j])
        values = np.where(better, cand_values, values)

    best = np.argmin(values, axis=-1)[..., None]
    found = [np.take_along_axis(f, best[..., None, None], axis=-3)[..., 0, :, :] for f in factors]
    return np.take_along_axis(values, best, axis=-1)[..., 0], found
