"""Validated density matrices in stacks, and their spectra.

Subsystem ordering convention: the leftmost tensor factor is always the
slowest-varying index. A state documented as living on (X, E) stores X first;
(X1, E1, X2, E2)-style lists mean exactly that storage order.

Validation tolerances are module constants. The package validates stacks by
:func:`make_density_stack`, which hands back each state's spectrum sorted
down, the one every caller reads; :func:`make_density` and
:class:`DensityMatrix` validate and hold one state for the one-state test
oracles in ``tests/oracles.py``.

:func:`ordered_sum` is the one summation rule of the package: of each
spectrum's total before it is renormalized, of every sum over outcomes that
a recorded slack or residual takes, and of each entropy's sum over a
spectrum. Terms add left to right, in order.
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
]


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis of x, adding its columns left to right, as a
    Python loop adds the terms of each row. np.sum adds pairwise and the
    builtin sum compensates since Python 3.12, so either may differ in the
    last bit."""
    return reduce(np.add, np.moveaxis(x, -1, 0))


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
        """Raw (unclipped) eigenvalues in ascending order, cached."""
        if self._eigs is None:
            self._eigs = _eigvalsh(self.mat)
        return self._eigs

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _as_complex_square(entries) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128, copy=True, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QuditEpiError(f"expected a square matrix, got shape {arr.shape}")
    return arr


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
    """Validate a matrix as a density matrix.

    The input is symmetrized as (m + m†)/2 before validation so representation
    round-off is absorbed; a hermiticity, trace or positivity deviation not
    within HERMITIAN_TOL, TRACE_TOL or POSITIVITY_TOL, a NaN included, is a
    hard error naming the measured deviation. A NaN or infinite entry fails
    the hermiticity check.
    """
    arr = _as_complex_square(entries)
    herm_dev = float(np.abs(arr - arr.conj().T).max())
    if not herm_dev <= HERMITIAN_TOL:
        raise ValidationError(f"max|m - m†| = {herm_dev:.3e} exceeds tol {HERMITIAN_TOL:.1e}")
    sym = (arr + arr.conj().T) / 2
    trace_dev = abs(complex(np.trace(sym)) - 1.0)
    if not trace_dev <= TRACE_TOL:
        raise ValidationError(f"|Tr m - 1| = {trace_dev:.3e} exceeds tol {TRACE_TOL:.1e}")
    eigs = _eigvalsh(sym)
    if not eigs[0] >= -POSITIVITY_TOL:
        raise ValidationError(f"smallest eigenvalue {eigs[0]:.6e} below -tol {-POSITIVITY_TOL:.1e}")
    return DensityMatrix(sym, eigs)


def make_density_stack(entries) -> tuple[np.ndarray, np.ndarray]:
    """:func:`make_density` on each matrix of an (N, d, d) stack, and the
    spectrum of each.

    Each check runs over the whole stack in make_density's order and with its
    message: hermiticity, trace, then the smallest eigenvalue of (m + m†)/2.
    Each spectrum is then sorted down, its entries in [-POSITIVITY_TOL, 0)
    are clipped to zero and it is renormalized by its total, summed by
    :func:`ordered_sum`, provided that total is within SPECTRUM_SUM_TOL of
    one; a larger deviation is a hard error separating float noise from an
    invalid state. The first row failing a check raises.
    Returns the symmetrized stack, row i bit for bit what make_density stores
    for entries[i], and the (N, d) descending spectra, row i bit for bit what
    ``eigenvalues_descending`` of ``tests/oracles.py`` returns for that state.
    The arrays stay writable; the one-state oracles wrap a row in a
    DensityMatrix to share it.
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
