"""Majorization slacks and entropies of stacked spectra, the entropy-power
window, and a hill climb over product measurement bases that searches for the
measurement minimizing an objective, such as a conditional entropy power or
an inequality's slack. The one-vector functionals are test oracles in
``tests/oracles.py``.

:func:`climb_product_basis` is the one climb: it advances a whole stack of
searches in lockstep, so a caller with one search and the theorem's block of
trials (every kappa and restart of each trial) share it. Its objective kernel,
:func:`projective_entropy_power`, takes qubit spectra in closed form and
calls an eigensolver only for larger conditioned blocks.

Convention: natural logarithm everywhere. The entropy power of order kappa is
exp(kappa * S) with S in nats, so the concavity window upper edge is
1/(ln d)^2. The convention is recorded in run manifests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuditEpiError
from .measurement import PROB_FLOOR, condition_projective_all
from .rand import KeyedStreams, complex_gaussians, derived_indices, haar_unitaries, normal_count
from .states import ordered_sum

# Budget of each climb_product_basis search.
CLIMB_RESTARTS = 3
CLIMB_REFINE_STEPS = 10
CLIMB_STEP_SCALE = 0.2

__all__ = [
    "prefix_slack_rows",
    "entropy_nats_rows",
    "kappa_bounds",
    "projective_entropy_power",
    "climb_product_basis",
]


def prefix_slack_rows(dominating: np.ndarray, dominated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min_k sum(dominating[:k]) - sum(dominated[:k]), total difference) of
    each row pair of two (N, d) stacks of descending vectors, as two (N,)
    arrays: dominated < dominating in the majorization order where the first
    is nonnegative. Row i is bit for bit ``prefix_slack`` of ``tests/oracles.py``.
    """
    diff = np.cumsum(dominating, axis=1) - np.cumsum(dominated, axis=1)
    return diff.min(axis=1), diff[:, -1]


def entropy_nats_rows(p: np.ndarray) -> np.ndarray:
    """-sum p ln p in nats of each row of an (..., d) stack with entries
    p >= 0 (unvalidated), as a (...) array.

    Zero entries add an exact 0.0 term instead of being dropped. The terms
    add left to right (:func:`ordered_sum`), as ``entropy_nats`` of
    ``tests/oracles.py`` adds them, so each value equals it bit for bit.
    """
    return -ordered_sum(p * np.log(np.where(p > 0.0, p, 1.0)))


def kappa_bounds(d: int) -> float:
    """1/(ln d)^2: the upper edge of the window of kappa in which the entropy
    power exp(kappa * S) of a d-level state is concave, and the largest kappa
    that the inequality checks assert."""
    if d < 2:
        raise QuditEpiError(f"need d >= 2, got {d}")
    return 1.0 / math.log(d) ** 2


def _normalized_spectra(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Traces p, the mask p > PROB_FLOOR and the ascending spectra of
    blocks / p of a (..., dx, dx) stack; a masked block's spectrum means
    nothing.

    Qubit blocks take the closed form (1 -+ r)/2 with
    r = sqrt((s00 - s11)^2 + 4|s10|^2) / p, read from the diagonal and the
    lower triangle as eigvalsh reads them; p = s00.real + s11.real equals the
    trace's real part bit for bit. Larger blocks go through one stacked eigvalsh.
    """
    if blocks.shape[-1] == 2:
        s00, s11, s10 = blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0]
        probs = s00 + s11
        kept = probs > PROB_FLOOR
        r = np.sqrt((s00 - s11) ** 2 + 4.0 * (s10.real**2 + s10.imag**2)) / np.where(kept, probs, 1.0)
        return probs, kept, np.stack([1.0 - r, 1.0 + r], axis=-1) / 2.0
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    kept = probs > PROB_FLOOR
    return probs, kept, np.linalg.eigvalsh(blocks / np.where(kept, probs, 1.0)[..., None, None])


def projective_entropy_power(rho4s, bases, kappa) -> list[tuple[np.ndarray, np.ndarray]]:
    """Outcome probabilities and conditional entropy powers of projective
    measurements on stacks of states at once: the climb objective's kernel.

    rho4s[i] is a (..., dx, de_i, dx, de_i)-reshaped state stack, measured in
    the columns of the (..., de_i, n_i) basis stack bases[i]; every state has
    the same dx, each state and basis broadcast to the same leading axes for
    every i, and kappa is a float or an array broadcasting against them.
    Qubit blocks (dx = 2) take a closed-form spectrum, and larger blocks of
    all states go through one stacked eigvalsh (:func:`_normalized_spectra`),
    so the climb calls no eigensolver at dx = 2. Returns one
    (probabilities, entropy powers) pair of (..., n_i) arrays per state;
    outcomes at or below PROB_FLOOR read 0 in both, so they drop out of every
    probability-weighted sum. Each value equals what its own state, basis and
    kappa give alone, bit for bit.
    Unvalidated: the validated route is measurement.condition_all_stack.
    """
    blocks = np.concatenate([condition_projective_all(r, b) for r, b in zip(rho4s, bases)], axis=-3)
    probs, kept, lam = _normalized_spectra(blocks)
    entropies = entropy_nats_rows(np.clip(lam, 0.0, None))
    powers = np.where(kept, np.exp(np.asarray(kappa)[..., None] * entropies), 0.0)
    probs = np.where(kept, probs, 0.0)
    splits = np.cumsum([b.shape[-1] for b in bases[:-1]])
    return list(zip(np.split(probs, splits, axis=-1), np.split(powers, splits, axis=-1)))


def _qubit_rotations(h: np.ndarray, theta: float) -> np.ndarray:
    """exp(i theta H) of each matrix of a (..., 2, 2) Hermitian stack.

    Closed form e^{i theta t} (cos(theta r) I + i sin(theta r) (H - tI) / r)
    with t = Tr H / 2 and r the half-gap hypot((h00 - h11) / 2, |h10|), read
    from the diagonal and the lower triangle as eigh reads them. The factor
    sin(theta r) / r is theta sinc(theta r / pi), so r = 0 needs no branch
    and hypot keeps r where r^2 underflows.
    """
    h00, h11, h10 = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
    half = (h00 - h11) / 2
    r = np.hypot(half, np.abs(h10))
    phase = np.exp(1j * theta * ((h00 + h11) / 2))
    cos = phase * np.cos(theta * r)
    i_sin = phase * (1j * theta * np.sinc(theta * r / np.pi))
    u = np.empty(h.shape, dtype=np.complex128)
    u[..., 0, 0] = cos + i_sin * half
    u[..., 1, 1] = cos - i_sin * half
    u[..., 1, 0] = i_sin * h10
    u[..., 0, 1] = i_sin * h10.conj()
    return u


def _qubit_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of two (..., 2, 2) stacks as elementwise multiply-adds, which
    for 2x2 matrices cost less than a batched zgemm call."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def climb_product_basis(objective, starts, seed, streams) -> tuple[np.ndarray, list[np.ndarray]]:
    """Random-restart hill climbs of objective over product bases
    U1 (x) ... (x) Un, one unitary factor per local environment, for a stack
    of searches that all advance in lockstep.

    starts[j] is the (*lead, e_j, e_j) stack of the searches' start factor j,
    for at most CLIMB_REFINE_STEPS factors, and streams is the lead-shaped
    uint64 array of the searches' stream keys under the master seed `seed`.
    Each search runs CLIMB_RESTARTS restarts: restart 0 starts at its factors
    in `starts`, restart r >= 1 at Haar factors of the same dimensions. Each
    restart then takes CLIMB_REFINE_STEPS accept-if-lower steps: step k
    rotates factor j = k mod n, Uj <- Uj exp(i * CLIMB_STEP_SCALE * H) with H
    drawn GUE-style. Restart r of the search with stream key s draws its Haar
    start and then its steps from stream (seed, derived_indices(s, r)), in
    one call. No draw depends on which steps are accepted, so every climb
    draws up front. :func:`haar_unitaries` builds every Haar start and
    replays a restart whose draw fails a check, and
    :func:`complex_gaussians` reads the step Gaussians. Each factor's step
    rotations are built for all steps at once: in closed form at e_j = 2
    (:func:`_qubit_rotations`), by one stacked eigh otherwise. A step
    multiplies its qubit factor elementwise
    (:func:`_qubit_product`), a larger one with @, and scores every climb in
    one objective call.

    objective(factors) takes the (*lead, CLIMB_RESTARTS, e_j, e_j) stacks of
    every climb's factors and returns their (*lead, CLIMB_RESTARTS) values; it
    is called 1 + CLIMB_REFINE_STEPS times. Returns each search's lowest value
    found, a lead-shaped array, and its factors, one (*lead, e_j, e_j) stack
    per factor (ties keep the lowest r). A value is never above the objective
    at its search's start; it is only an upper bound on the minimum over the
    product family.

    Starts that are not 1 to CLIMB_REFINE_STEPS square factors of one lead
    shape, and stream keys not of that lead shape, raise a QuditEpiError
    before any draw.
    """
    if not 1 <= len(starts) <= CLIMB_REFINE_STEPS:
        raise QuditEpiError(f"need 1 to {CLIMB_REFINE_STEPS} start factors, got {len(starts)}")
    lead = starts[0].shape[:-2]
    if any(u.ndim < 2 or u.shape[-1] != u.shape[-2] or u.shape[:-2] != lead for u in starts):
        raise QuditEpiError(
            f"start factors must be square with one lead shape, got shapes {[u.shape for u in starts]}"
        )
    if np.shape(streams) != lead:
        raise QuditEpiError(f"stream keys of shape {np.shape(streams)} for searches of shape {lead}")
    dims = [u.shape[-1] for u in starts]
    steps = [k % len(dims) for k in range(CLIMB_REFINE_STEPS)]
    step_shapes = [(dims[j], dims[j]) for j in steps]
    n_haar = normal_count([(e, e) for e in dims])
    draws = np.empty((*lead, CLIMB_RESTARTS, n_haar + normal_count(step_shapes)))
    # keys[(*search, r)] is the stream index of restart r of the search.
    keys = derived_indices(np.asarray(streams, dtype=np.uint64)[..., None], np.arange(CLIMB_RESTARTS, dtype=np.uint64))
    generators = KeyedStreams(seed)
    for i, (row, key) in enumerate(zip(draws.reshape(-1, draws.shape[-1]), keys.ravel().tolist())):
        # Restart 0 starts at its given factors and draws only its steps.
        generators.at(key).standard_normal(out=row[n_haar if i % CLIMB_RESTARTS == 0 else 0 :])
    haar = haar_unitaries(draws[..., 1:, :], 0, dims, lambda row: generators.at(int(keys[..., 1:][row])))
    factors = [np.concatenate([u[..., None, :, :], h], axis=-3) for u, h in zip(starts, haar)]

    gaussians = complex_gaussians(draws[..., n_haar:], step_shapes)
    rotations = {}
    for j, e in enumerate(dims):
        ks = [k for k, jk in enumerate(steps) if jk == j]
        a = np.stack([gaussians[k] for k in ks])
        h = (a + a.conj().swapaxes(-1, -2)) / 2
        if e == 2:
            u = _qubit_rotations(h, CLIMB_STEP_SCALE)
        else:
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(1j * CLIMB_STEP_SCALE * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        rotations.update(zip(ks, u))

    values = objective(factors)
    for k, j in enumerate(steps):
        candidate = factors.copy()
        candidate[j] = _qubit_product(factors[j], rotations[k]) if dims[j] == 2 else factors[j] @ rotations[k]
        cand_values = objective(candidate)
        better = cand_values < values
        factors[j] = np.where(better[..., None, None], candidate[j], factors[j])
        values = np.where(better, cand_values, values)

    best = np.argmin(values, axis=-1)[..., None]
    found = [np.take_along_axis(f, best[..., None, None], axis=-3)[..., 0, :, :] for f in factors]
    return np.take_along_axis(values, best, axis=-1)[..., 0], found
