"""Validated density matrices in stacks, their spectra, and the entropies and
majorization slacks of stacked spectra.

Subsystem ordering convention: the leftmost tensor factor is always the
slowest-varying index. A state documented as living on (X, E) stores X first;
(X1, E1, X2, E2)-style lists mean exactly that storage order.

Validation tolerances are module constants. The package validates stacks by
:func:`make_density_stack`, which hands back each state's spectrum sorted
down, the one every caller reads. It owns the checks and their messages:
:func:`make_density` is :func:`make_density_stack` on a stack of one, and
:class:`DensityMatrix` holds the state it validates, for the one-state test
oracles in ``tests/oracles.py``.

:func:`ordered_sum` is the one summation rule of the package: of each
spectrum's total before it is renormalized, of every sum over outcomes that
a recorded slack or residual takes, and of each entropy's sum over a
spectrum (:func:`entropy_nats_rows`). Terms add left to right, in order.
:func:`mixture_majorization_rows` owns the majorization check of the qepi
and lemma blocks: the output spectrum against the tau-mixture of the inputs'.

Convention: natural logarithm everywhere. The entropy power of order kappa is
exp(kappa * S) with S in nats, so the concavity window upper edge is
1/(ln d)^2 (``harness.kappa_bounds``). The convention is recorded in run
manifests.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import QuditEpiError, ValidationError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
SPECTRUM_SUM_TOL = 1e-9

__all__ = [
    "DensityMatrix",
    "make_density",
    "make_density_stack",
    "ordered_sum",
    "entropy_nats_rows",
    "prefix_slack_rows",
    "mixture_majorization_rows",
]


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis of x, adding its columns left to right, as a
    Python loop adds the terms of each row. np.sum adds pairwise and the
    builtin sum compensates since Python 3.12, so either may differ in the
    last bit."""
    return reduce(np.add, np.moveaxis(x, -1, 0))


def entropy_nats_rows(p: np.ndarray) -> np.ndarray:
    """-sum p ln p in nats of each row of an (..., d) stack with entries
    p >= 0 (unvalidated), as a (...) array.

    Zero entries add an exact 0.0 term instead of being dropped. The terms
    add left to right (:func:`ordered_sum`), as ``entropy_nats`` of
    ``tests/oracles.py`` adds them, so each value equals it bit for bit.
    """
    return -ordered_sum(p * np.log(np.where(p > 0.0, p, 1.0)))


def prefix_slack_rows(dominating: np.ndarray, dominated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min_k sum(dominating[:k]) - sum(dominated[:k]), total difference) of
    each row pair of two (N, d) stacks of descending vectors, as two (N,)
    arrays: dominated < dominating in the majorization order where the first
    is nonnegative. Row i is bit for bit ``prefix_slack`` of ``tests/oracles.py``.
    """
    diff = np.cumsum(dominating, axis=1) - np.cumsum(dominated, axis=1)
    return diff.min(axis=1), diff[:, -1]


def mixture_majorization_rows(tau, lam1: np.ndarray, lam2: np.ndarray, lam_out: np.ndarray):
    """(prefix slacks, |total differences|) of :func:`prefix_slack_rows` of
    tau lam1 + (1 - tau) lam2 against lam_out, row by row, for (N, d)
    descending spectra and an (N,) tau."""
    t = np.asarray(tau)[:, None]
    slacks, totals = prefix_slack_rows(t * lam1 + (1.0 - t) * lam2, lam_out)
    return slacks, np.abs(totals)


class DensityMatrix:
    """A d x d Hermitian, positive-semidefinite, unit-trace complex matrix.

    Build instances through :func:`make_density`, which symmetrizes and
    validates; the raw constructor trusts its input. The stored array is
    write-protected so values can be shared across workers.
    """

    __slots__ = ("mat", "_eigs")

    def __init__(self, mat: np.ndarray, eigs: np.ndarray | None = None):
        mat.setflags(write=False)
        self.mat = mat
        self._eigs = eigs

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues_ascending(self) -> np.ndarray:
        """Raw (unclipped) eigenvalues in ascending order, computed on first use."""
        if self._eigs is None:
            self._eigs = _eigvalsh(self.mat)
        return self._eigs

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of each in a stack."""
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        herm = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
        raise QuditEpiError(
            f"eigvalsh failed on dim={mat.shape[-1]}: {exc}; "
            f"max|entry|={float(np.abs(mat).max()):.3e}, hermiticity residual={herm:.3e}"
        ) from exc


def make_density(entries) -> DensityMatrix:
    """Validate one d x d matrix as a density matrix: :func:`make_density_stack`
    on a stack of one, with its checks and messages. The state holds the
    symmetrized matrix."""
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QuditEpiError(f"expected a square matrix, got shape {arr.shape}")
    sym, _ = make_density_stack(arr[None])
    return DensityMatrix(sym[0])


def make_density_stack(entries) -> tuple[np.ndarray, np.ndarray]:
    """Validate each matrix m of an (N, d, d) stack as a density matrix.

    The checks run over the whole stack in this order: hermiticity of m,
    then the trace and the smallest eigenvalue of (m + m†)/2, which absorbs
    representation round-off. A deviation not within HERMITIAN_TOL,
    TRACE_TOL or POSITIVITY_TOL, a NaN included, is a hard error naming the
    measured deviation; a NaN or infinite entry fails the hermiticity check.
    Each spectrum is then sorted down, its entries in [-POSITIVITY_TOL, 0)
    are clipped to zero and it is renormalized by its total, summed by
    :func:`ordered_sum`, provided that total is within SPECTRUM_SUM_TOL of
    one; a larger deviation is a hard error separating float noise from an
    invalid state. The first row failing a check raises.
    Returns the symmetrized stack and the (N, d) descending spectra, row i
    bit for bit what ``eigenvalues_descending`` of ``tests/oracles.py``
    returns for the state of entries[i]. The arrays stay writable.
    """
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise QuditEpiError(f"expected a stack of square matrices, got shape {arr.shape}")
    adj = arr.conj().swapaxes(1, 2)
    herm_dev = np.abs(arr - adj).max(axis=(1, 2))
    bad = ~(herm_dev <= HERMITIAN_TOL)
    if bad.any():
        raise ValidationError(f"max|m - m†| = {herm_dev[bad.argmax()]:.3e} exceeds tol {HERMITIAN_TOL:.1e}")
    sym = (arr + adj) / 2
    trace_dev = np.abs(np.trace(sym, axis1=1, axis2=2) - 1.0)
    bad = ~(trace_dev <= TRACE_TOL)
    if bad.any():
        raise ValidationError(f"|Tr m - 1| = {trace_dev[bad.argmax()]:.3e} exceeds tol {TRACE_TOL:.1e}")
    eigs = _eigvalsh(sym)
    bad = ~(eigs[:, 0] >= -POSITIVITY_TOL)
    if bad.any():
        raise ValidationError(
            f"smallest eigenvalue {eigs[bad.argmax(), 0]:.6e} below -tol {-POSITIVITY_TOL:.1e}"
        )
    vals = np.clip(eigs[:, ::-1], 0.0, None)
    total = ordered_sum(vals)
    off = ~(np.abs(total - 1.0) <= SPECTRUM_SUM_TOL)
    if off.any():
        raise ValidationError(
            f"spectrum sums to {float(total[off.argmax()])!r}, off by more than {SPECTRUM_SUM_TOL:.1e}"
        )
    return sym, vals / total[:, None]
