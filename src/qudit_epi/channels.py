"""The partial-swap channel, in closed form and by explicit conjugation.

Two independent routes compute each map. On one pair of states the closed
form tau*r1 + (1-tau)*r2 - i sqrt(tau(1-tau)) [r1, r2] is the production
route and the conjugation route (build the unitary, conjugate, trace out the
second input) its oracle. On two system-environment inputs the production
route is :func:`partial_swap_global`, a stacked einsum on the two input
factors that never forms their product; the dense conjugation of the
permuted product by :func:`partial_swap_joint` and the extended-operator form
:func:`partial_swap_global_closed` are its oracles. partial_swap_joint stays
the channel of the conjecture's entangled (X1, X2, E) states, which are no
product. Tests pin the agreement of every pair of routes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuditEpiError
from .states import (
    DensityMatrix,
    MultipartiteState,
    make_density,
    make_density_stack,
    multipartite,
    partial_trace,
)

__all__ = [
    "check_mixing",
    "swap_operator",
    "partial_swap_unitary",
    "partial_swap_closed",
    "partial_swap_closed_stack",
    "partial_swap_conjugation",
    "partial_swap_joint",
    "partial_swap_global",
    "partial_swap_global_closed",
]


def check_mixing(tau: float) -> float:
    """Validate a mixing parameter; must lie in [0, 1]."""
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"mixing parameter must be in [0, 1], got {tau}")
    return tau


def swap_operator(d: int) -> np.ndarray:
    """The d^2 x d^2 swap W with W(|a>⊗|b>) = |b>⊗|a>; Hermitian, W^2 = I."""
    if d < 2:
        raise QuditEpiError(f"swap needs d >= 2, got {d}")
    w = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            w[b * d + a, a * d + b] = 1.0
    return w


def partial_swap_unitary(d: int, tau: float) -> np.ndarray:
    """U = sqrt(tau) I + i sqrt(1-tau) W on two d-level systems.

    Unitary because W is Hermitian with W^2 = I; endpoints are exact (tau=1
    gives the identity, tau=0 gives iW).
    """
    tau = check_mixing(tau)
    w = swap_operator(d)
    return math.sqrt(tau) * np.eye(d * d, dtype=np.complex128) + 1j * math.sqrt(1.0 - tau) * w


def _check_pair(rho1: DensityMatrix, rho2: DensityMatrix) -> int:
    if rho1.dim != rho2.dim:
        raise QuditEpiError(f"input dims differ: {rho1.dim} vs {rho2.dim}")
    return rho1.dim


def partial_swap_closed(rho1: DensityMatrix, rho2: DensityMatrix, tau: float) -> DensityMatrix:
    """Qudit addition rule tau*r1 + (1-tau)*r2 - i sqrt(tau(1-tau)) [r1, r2].

    The commutator term is skipped exactly at tau in {0, 1}, so the endpoints
    return the unmixed input bit-for-bit. The map always yields a state; a
    positivity failure here signals an implementation bug, not bad input.
    """
    _check_pair(rho1, rho2)
    tau = check_mixing(tau)
    r1, r2 = rho1.mat, rho2.mat
    c = math.sqrt(tau * (1.0 - tau))
    out = tau * r1 + (1.0 - tau) * r2
    if c != 0.0:
        out = out - 1j * c * (r1 @ r2 - r2 @ r1)
    return make_density(out)


def _check_mixing_stack(tau: np.ndarray) -> None:
    """:func:`check_mixing` on each entry of an (N,) array."""
    if not ((tau >= 0.0) & (tau <= 1.0)).all():
        raise ValueError(f"mixing parameters must be in [0, 1], got {tau[(tau < 0.0) | (tau > 1.0)]}")


def partial_swap_closed_stack(r1: np.ndarray, r2: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`partial_swap_closed` on stacks: row i mixes r1[i] and r2[i] with tau[i].

    r1 and r2 are (N, d, d) density stacks, tau an (N,) array. Returns the
    validated output stack and its ascending eigenvalues (see
    :func:`make_density_stack`), row i bit for bit what partial_swap_closed
    gives, including the exact endpoints.
    """
    if r1.shape != r2.shape:
        raise QuditEpiError(f"input stacks differ: {r1.shape} vs {r2.shape}")
    _check_mixing_stack(tau)
    t = tau[:, None, None]
    c = np.sqrt(t * (1.0 - t))
    out = t * r1 + (1.0 - t) * r2
    out = np.where(c != 0.0, out - 1j * c * (r1 @ r2 - r2 @ r1), out)
    return make_density_stack(out)


def partial_swap_conjugation(rho1: DensityMatrix, rho2: DensityMatrix, tau: float) -> DensityMatrix:
    """Same map computed by conjugation with U and tracing the second system.

    Independent of the closed form on purpose: this is the oracle route.
    """
    d = _check_pair(rho1, rho2)
    tau = check_mixing(tau)
    u = partial_swap_unitary(d, tau)
    big = u @ np.kron(rho1.mat, rho2.mat) @ u.conj().T
    reduced = np.trace(big.reshape(d, d, d, d), axis1=1, axis2=3)
    return make_density(np.ascontiguousarray(reduced))


def partial_swap_joint(s: MultipartiteState, tau: float) -> MultipartiteState:
    """Partial swap on the system legs of a joint (X1, X2, E...) state.

    The swap unitary acts on (X1, X2), tensored with the identity on every
    environment leg; X2 is then traced out. Output order is (Y, E...).
    """
    if len(s.dims) < 2:
        raise QuditEpiError(f"expected an (X1, X2, E...) state, got dims {s.dims}")
    d, d2, *envs = s.dims
    if d != d2:
        raise QuditEpiError(f"system dims differ: {d} vs {d2}")
    tau = check_mixing(tau)
    u_full = np.kron(partial_swap_unitary(d, tau), np.eye(math.prod(envs), dtype=np.complex128))
    conj = u_full @ s.state.mat @ u_full.conj().T
    # Unitary conjugation preserves validity; the reduced output below is
    # re-validated, so skip the expensive check on the big intermediate.
    out = MultipartiteState(DensityMatrix(conj), s.dims)
    return partial_trace(out, (0, *range(2, len(s.dims))))


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
    (Y, E1, E2), and its ascending eigenvalues (see
    :func:`make_density_stack`); row i is bit for bit what the row alone
    gives.
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


def partial_swap_global_closed(s1: MultipartiteState, s2: MultipartiteState, tau: float) -> MultipartiteState:
    """Oracle for :func:`partial_swap_global` via extended operators, on one
    pair of (X, E1) and (X, E2) states.

    Each input is embedded on (X, E1, E2) by padding with the identity on the
    missing environment; the output is then the convex combination of the
    embedded inputs (environments replaced by the partner's marginal) minus
    i sqrt(tau(1-tau)) times the commutator of the embeddings.
    """
    if len(s1.dims) != 2 or len(s2.dims) != 2:
        raise QuditEpiError(f"expected bipartite inputs, got dims {s1.dims} and {s2.dims}")
    d, e1 = s1.dims
    d2, e2 = s2.dims
    if d != d2:
        raise QuditEpiError(f"system dims differ: {d} vs {d2}")
    tau = check_mixing(tau)

    rho1 = s1.state.mat
    rho2 = s2.state.mat
    rho_e1 = partial_trace(s1, (1,)).state.mat
    rho_e2 = partial_trace(s2, (1,)).state.mat

    def to_xe1e2(mat: np.ndarray) -> np.ndarray:
        # reorder an (X, E2, E1) operator into (X, E1, E2)
        t = mat.reshape(d, e2, e1, d, e2, e1).transpose(0, 2, 1, 3, 5, 4)
        return np.ascontiguousarray(t.reshape(d * e1 * e2, d * e1 * e2))

    term1 = np.kron(rho1, rho_e2)  # (X,E1,E2) already
    term2 = to_xe1e2(np.kron(rho2, rho_e1))
    out = tau * term1 + (1.0 - tau) * term2
    c = math.sqrt(tau * (1.0 - tau))
    if c != 0.0:
        a_emb = np.kron(rho1, np.eye(e2, dtype=np.complex128))
        b_emb = to_xe1e2(np.kron(rho2, np.eye(e1, dtype=np.complex128)))
        out = out - 1j * c * (a_emb @ b_emb - b_emb @ a_emb)
    return multipartite(make_density(out), (d, e1, e2))
