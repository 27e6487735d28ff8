"""The partial-swap channel on stacks: the closed form on pairs of states and
the kron-free form on pairs of system-environment states.

On stacks of state pairs the channel is the qudit addition rule
tau*r1 + (1-tau)*r2 - i sqrt(tau(1-tau)) [r1, r2]
(:func:`partial_swap_closed_stack`). On two system-environment inputs it is
:func:`partial_swap_global`, a stacked einsum on the two input factors that
never forms their product. Neither forms the swap unitary. The one-pair
closed form ``partial_swap_closed``, the same einsum terms on joint
(X1, X2, E) states (``partial_swap_joint_stack``) and the independent routes
that check these (conjugation by the unitary, extended operators) are test
oracles in ``tests/oracles.py``; tests pin the agreement of every pair of
routes.
"""

from __future__ import annotations

import numpy as np

from .errors import QuditEpiError, ValidationError
from .states import make_density_stack

__all__ = ["partial_swap_closed_stack", "partial_swap_global"]


def _check_mixing_stack(tau: np.ndarray) -> None:
    """``check_mixing`` of ``tests/oracles.py`` on each entry of an (N,) array."""
    bad = ~((tau >= 0.0) & (tau <= 1.0))  # a NaN fails both comparisons
    if bad.any():
        raise ValidationError(f"mixing parameters must be in [0, 1], got {tau[bad]}")


def partial_swap_closed_stack(r1: np.ndarray, r2: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The addition rule on stacks: row i mixes r1[i] and r2[i] with tau[i].

    r1 and r2 are (N, d, d) density stacks, tau an (N,) array. Returns the
    validated output stack and its descending spectra (see
    :func:`make_density_stack`), row i bit for bit ``partial_swap_closed`` of
    ``tests/oracles.py``. The commutator term is skipped exactly at tau in
    {0, 1}, so the endpoints return the unmixed input.
    """
    if r1.shape != r2.shape:
        raise QuditEpiError(f"input stacks differ: {r1.shape} vs {r2.shape}")
    _check_mixing_stack(tau)
    t = tau[:, None, None]
    c = np.sqrt(t * (1.0 - t))
    out = t * r1 + (1.0 - t) * r2
    out = np.where(c != 0.0, out - 1j * c * (r1 @ r2 - r2 @ r1), out)
    return make_density_stack(out)


def partial_swap_global(
    rho1: np.ndarray, rho2: np.ndarray, tau: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partial swap across the system legs of stacks of two system-environment
    states: row i mixes rho1[i] and rho2[i] with tau[i].

    rho1 and rho2 are (N, d*e1, d*e1) and (N, d*e2, d*e2) density stacks
    ordered (X1, E1) and (X2, E2), tau an (N,) array; the swap unitary
    U = sqrt(tau) I + i sqrt(1-tau) W acts on (X1, X2) only and X2 is traced
    out. With rho = rho1 (x) rho2 and c = sqrt(tau(1-tau)),

        Tr_X2 U rho U+ = tau Tr_X2 rho + (1-tau) Tr_X2 W rho W
                         + i c (Tr_X2 W rho - Tr_X2 rho W),

    and on product inputs the first two terms are rho1 (x) sigma2 and
    sigma1 (x) rho2, sigma_j the environment marginal of input j, and the
    last two are sums over the traced system index b of rho2[., b] rho1[b, .]
    and rho1[., b] rho2[b, .]. Each is computed on the factors by
    broadcasting or einsum, so neither rho1 (x) rho2 nor a matrix product is
    ever formed. The commutator term is skipped exactly at tau in {0, 1}.

    Returns the validated (N, D, D) output stack, D = d*e1*e2 ordered
    (Y, E1, E2), and its descending spectra (see :func:`make_density_stack`);
    row i is bit for bit what the row alone gives.
    """
    n = len(tau)
    e1, e2 = rho1.shape[-1] // d, rho2.shape[-1] // d
    if rho1.shape != (n, d * e1, d * e1) or rho2.shape != (n, d * e2, d * e2):
        raise QuditEpiError(
            f"expected ({n}, {d}*e, {d}*e) input stacks for {n} mixing parameters, "
            f"got shapes {rho1.shape} and {rho2.shape}"
        )
    _check_mixing_stack(tau)
    r1 = rho1.reshape(n, d, e1, d, e1)  # [a, e, a', e']
    r2 = rho2.reshape(n, d, e2, d, e2)  # [b, f, b', f']
    sigma1 = np.einsum("naeah->neh", r1)
    sigma2 = np.einsum("nbfbg->nfg", r2)
    # Output axes (a, e, f, a', e', f') of (Y, E1, E2).
    t = tau.reshape(n, 1, 1, 1, 1, 1, 1)
    out = t * (r1[:, :, :, None, :, :, None] * sigma2[:, None, None, :, None, None, :]) + (1.0 - t) * (
        sigma1[:, None, :, None, None, :, None] * r2[:, :, None, :, :, None, :]
    )
    c = np.sqrt(t * (1.0 - t))
    swapped = np.einsum("nafbg,nbech->naefchg", r2, r1) - np.einsum("naebh,nbfcg->naefchg", r1, r2)
    out = np.where(c != 0.0, out + 1j * c * swapped, out)
    return make_density_stack(out.reshape(n, d * e1 * e2, d * e1 * e2))
