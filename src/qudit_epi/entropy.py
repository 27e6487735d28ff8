"""The basis search: a hill climb over product measurement bases that
searches for the measurement minimizing an objective, such as a conditional
entropy power or an inequality's slack. Only the conditioned experiments
(``conditional``) search, so a qepi or concavity run never imports this
module; the entropies of stacked spectra and the majorization slacks live in
``states``, and the window edge :func:`kappa_bounds` in ``harness``.

:func:`climb_product_basis` is the one climb: it advances a whole stack of
searches in lockstep, so a caller with one search and the theorem's block of
trials (every kappa and restart of each trial) share it. Its objective
kernel, :func:`projective_entropy_power`, conditions every state it is given
and takes every qubit spectrum from one closed form (:func:`_qubit_spectra`),
calling an eigensolver only for larger conditioned blocks. The theorem's
objective at dx = 2 hands it only the two inputs and tau: each outcome pair of
the partial-swap output is then scored from the conditioned inputs by the
lemma's identity, the addition rule in Bloch form, so no joint output is
built. At dx >= 3 it hands it the joint output as a third state, because
scoring pairs from the inputs' dx x dx blocks measured no faster there.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import QuditEpiError
from .measurement import PROB_FLOOR, condition_projective_all
from .rand import KeyedStreams, complex_gaussians, derived_indices, haar_unitaries, normal_count
from .states import entropy_nats_rows

# Budget of each climb_product_basis search.
CLIMB_RESTARTS = 3
CLIMB_REFINE_STEPS = 10
CLIMB_STEP_SCALE = 0.2

# The signs of r in a qubit spectrum (1 -+ r)/2: 1.0 + r * -1.0 is 1.0 - r
# bit for bit, and one multiply builds both eigenvalues.
_SIGNS = np.array([-1.0, 1.0])

__all__ = ["projective_entropy_power", "climb_product_basis"]


def _qubit_spectra(probs: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask probs > PROB_FLOOR and the ascending spectra (1 -+ r)/2 of
    qubit blocks of traces probs whose unnormalized Bloch vectors have squared
    lengths r2, with r = sqrt(r2) / probs: the one qubit closed form. A masked
    block's spectrum means nothing."""
    kept = probs > PROB_FLOOR
    r = np.sqrt(r2) / np.where(kept, probs, 1.0)
    return kept, (1.0 + r[..., None] * _SIGNS) / 2.0


def _normalized_spectra(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Traces p, the mask p > PROB_FLOOR and the ascending spectra of
    blocks / p of a (..., dx, dx) stack; a masked block's spectrum means
    nothing.

    Qubit blocks take :func:`_qubit_spectra` with the squared Bloch length
    (s00 - s11)^2 + 4|s10|^2, read from the diagonal and the lower triangle
    as eigvalsh reads them; p = s00.real + s11.real equals the trace's real
    part bit for bit. Larger blocks go through one stacked eigvalsh.
    """
    if blocks.shape[-1] == 2:
        s00, s11, s10 = blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0]
        probs = s00 + s11
        return (probs, *_qubit_spectra(probs, (s00 - s11) ** 2 + 4.0 * (s10.real**2 + s10.imag**2)))
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    kept = probs > PROB_FLOOR
    return probs, kept, np.linalg.eigvalsh(blocks / np.where(kept, probs, 1.0)[..., None, None])


def _pair_weights(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """q1_j q2_k at outcome j e2 + k of the (..., e1 e2) grid of product bases."""
    return (q1[..., :, None] * q2[..., None, :]).reshape(*q1.shape[:-1], q1.shape[-1] * q2.shape[-1])


def _entropy_powers(probs, kept, lam, kappa, sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (probabilities, entropy powers) pairs of outcomes of traces probs,
    mask kept and ascending spectra lam, split along the outcome axis into
    runs of `sizes` outcomes; both read 0 at the outcomes not kept."""
    entropies = entropy_nats_rows(np.maximum(lam, 0.0))
    powers = np.where(kept, np.exp(np.asarray(kappa)[..., None] * entropies), 0.0)
    probs = np.where(kept, probs, 0.0)
    ends = list(accumulate(sizes))
    return [(probs[..., end - n : end], powers[..., end - n : end]) for n, end in zip(sizes, ends)]


def _swapped_qubit_bloch(blocks: np.ndarray, e1: int, tau) -> tuple[np.ndarray, np.ndarray]:
    """Traces q and squared unnormalized Bloch lengths |r|^2 of the conditioned
    blocks of two qubit inputs and of their partial-swap output, from the
    inputs' blocks alone: the (..., e1 + e2, 2, 2) stack `blocks` holds input
    1's e1 outcomes, then input 2's, and the result holds them, then the
    output's pair (j, k) at e1 + e2 + j e2 + k; tau broadcasts against the
    leading axes.

    Each input outcome is read as eigvalsh reads a block: weight
    q = s00 + s11 and Bloch vector a = (2 Re s10, 2 Im s10, s00 - s11). The
    output's outcome (j, k) has weight q1_j q2_k, and its block is the
    addition rule on the inputs' blocks (the lemma's identity), whose Bloch
    vector is
    r = tau q2_k a_j + (1 - tau) q1_j b_k + sqrt(tau (1 - tau)) a_j x b_k.
    Its x + iy part is assembled as one complex number, so no cross product
    is formed.
    """
    s00, s11, s10 = blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0]
    # Each outcome's weight q, z = a_z and xy = a_x + i a_y.
    q, z, xy = s00 + s11, s00 - s11, 2.0 * s10
    q1, z1, xy1 = (v[..., :e1, None] for v in (q, z, xy))
    q2, z2, xy2 = (v[..., None, e1:] for v in (q, z, xy))
    tau = np.asarray(tau)[..., None, None]
    c = np.sqrt(tau * (1.0 - tau))
    ic = 1j * c
    alpha, beta = tau * q2, (1.0 - tau) * q1
    # (a x b)_x + i (a x b)_y = i (a_z xy_b - b_z xy_a), (a x b)_z = Im(conj(xy_a) xy_b).
    r_xy = xy1 * (alpha - ic * z2) + xy2 * (beta + ic * z1)
    r_z = alpha * z1 + beta * z2 + c * (xy1.conj() * xy2).imag
    # The inputs' outcomes, then the pairs'. An input's |a|^2 is
    # (s00 - s11)^2 + 4|s10|^2 bit for bit, as _normalized_spectra sums it.
    lead = q.shape[:-1]
    q = np.concatenate([q, _pair_weights(q[..., :e1], q[..., e1:])], axis=-1)
    xy = np.concatenate([xy, r_xy.reshape(*lead, -1)], axis=-1)
    z = np.concatenate([z, r_z.reshape(*lead, -1)], axis=-1)
    return q, xy.real**2 + xy.imag**2 + z**2


def projective_entropy_power(rho4s, bases, kappa, tau=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Outcome probabilities and conditional entropy powers of projective
    measurements on stacks of states at once: the climb objective's kernel.

    rho4s[i] is a (..., dx, de_i, dx, de_i)-reshaped state stack, measured in
    the columns of the (..., de_i, n_i) basis stack bases[i]; every state has
    the same dx, each state and basis broadcast to the same leading axes for
    every i, and kappa is a float or an array broadcasting against them.
    Qubit blocks (dx = 2) take a closed-form spectrum, and larger blocks of
    all states go through one stacked eigvalsh (:func:`_normalized_spectra`).
    Returns one (probabilities, entropy powers) pair of (..., n_i) arrays per
    state; outcomes at or below PROB_FLOOR read 0 in both, so they drop out
    of every probability-weighted sum. Each value equals what its own state,
    basis and kappa give alone, bit for bit.

    With tau, which broadcasts against the leading axes, rho4s and bases are
    two qubit inputs (dx = 2) and their bases, and a third pair follows: their
    partial-swap output measured in the product bases, whose outcome j n_2 + k
    is the pair (j, k). It is scored from the conditioned inputs alone
    (:func:`_swapped_qubit_bloch`), so no joint output is built; its outcome
    mask is q1_j q2_k > PROB_FLOOR. The inputs' pairs are the ones returned
    without tau, bit for bit.
    Unvalidated: the validated route is measurement.condition_all_stack.
    """
    blocks = np.concatenate([condition_projective_all(r, b) for r, b in zip(rho4s, bases)], axis=-3)
    sizes = [b.shape[-1] for b in bases]
    if tau is None:
        return _entropy_powers(*_normalized_spectra(blocks), kappa, sizes)
    probs, r2 = _swapped_qubit_bloch(blocks, sizes[0], tau)
    return _entropy_powers(probs, *_qubit_spectra(probs, r2), kappa, [*sizes, sizes[0] * sizes[1]])


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
