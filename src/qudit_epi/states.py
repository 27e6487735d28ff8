"""Validated quantum-state containers and the dense linear algebra they share.

Subsystem ordering convention: the leftmost tensor factor is always the
slowest-varying index. A state documented as living on (X, E) stores X first;
(X1, E1, X2, E2)-style lists mean exactly that storage order.

Validation tolerances are module constants, shared by the one-state route
(:func:`make_density`, :func:`eigenvalues_descending`) and its stacked twin
(:func:`make_density_stack`, :func:`eigenvalues_descending_stack`).
"""

from __future__ import annotations

import numpy as np

from .errors import QuditEpiError, ValidationError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
SPECTRUM_SUM_TOL = 1e-9

__all__ = [
    "DensityMatrix",
    "MultipartiteState",
    "make_density",
    "make_density_stack",
    "multipartite",
    "as_bipartite",
    "tensor",
    "partial_trace",
    "permute_subsystems",
    "eigenvalues_descending",
    "eigenvalues_descending_stack",
    "commutator",
    "matrix_distance",
]


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


class MultipartiteState:
    """A DensityMatrix together with the ordered subsystem dimensions."""

    __slots__ = ("state", "dims")

    def __init__(self, state: DensityMatrix, dims: tuple[int, ...]):
        self.state = state
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.state.dim

    def __repr__(self) -> str:
        return f"MultipartiteState(dims={self.dims})"


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
    round-off is absorbed; a hermiticity, trace or positivity deviation beyond
    HERMITIAN_TOL, TRACE_TOL or POSITIVITY_TOL is a hard error naming the
    measured deviation.
    """
    arr = _as_complex_square(entries)
    herm_dev = float(np.abs(arr - arr.conj().T).max())
    if herm_dev > HERMITIAN_TOL:
        raise ValidationError(f"max|m - m†| = {herm_dev:.3e} exceeds tol {HERMITIAN_TOL:.1e}")
    sym = (arr + arr.conj().T) / 2
    trace_dev = abs(complex(np.trace(sym)) - 1.0)
    if trace_dev > TRACE_TOL:
        raise ValidationError(f"|Tr m - 1| = {trace_dev:.3e} exceeds tol {TRACE_TOL:.1e}")
    eigs = _eigvalsh(sym)
    if eigs[0] < -POSITIVITY_TOL:
        raise ValidationError(f"smallest eigenvalue {eigs[0]:.6e} below -tol {-POSITIVITY_TOL:.1e}")
    return DensityMatrix(sym, eigs)


def make_density_stack(entries) -> tuple[np.ndarray, np.ndarray]:
    """:func:`make_density` on each matrix of an (N, d, d) stack.

    Each check runs over the whole stack in make_density's order and with its
    message: hermiticity, trace, then the smallest eigenvalue of (m + m†)/2.
    The first row failing a check raises. Returns the symmetrized stack and
    its ascending eigenvalues, row i bit for bit what make_density stores for
    entries[i]. The arrays stay writable; wrap a row in a DensityMatrix to
    share it.
    """
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise QuditEpiError(f"expected a stack of square matrices, got shape {arr.shape}")
    adj = arr.conj().swapaxes(1, 2)
    herm_dev = np.abs(arr - adj).max(axis=(1, 2))
    bad = herm_dev > HERMITIAN_TOL
    if bad.any():
        raise ValidationError(f"max|m - m†| = {herm_dev[bad.argmax()]:.3e} exceeds tol {HERMITIAN_TOL:.1e}")
    sym = (arr + adj) / 2
    trace_dev = np.abs(np.trace(sym, axis1=1, axis2=2) - 1.0)
    bad = trace_dev > TRACE_TOL
    if bad.any():
        raise ValidationError(f"|Tr m - 1| = {trace_dev[bad.argmax()]:.3e} exceeds tol {TRACE_TOL:.1e}")
    eigs = _eigvalsh(sym)
    bad = eigs[:, 0] < -POSITIVITY_TOL
    if bad.any():
        raise ValidationError(
            f"smallest eigenvalue {eigs[bad.argmax(), 0]:.6e} below -tol {-POSITIVITY_TOL:.1e}"
        )
    return sym, eigs


def multipartite(state: DensityMatrix, dims) -> MultipartiteState:
    """Attach subsystem dimensions to a state; their product must match."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise QuditEpiError(f"subsystem dimensions must be >= 1, got {dims}")
    prod = 1
    for d in dims:
        prod *= d
    if prod != state.dim:
        raise QuditEpiError(f"product(dims)={prod} != state dim {state.dim}")
    return MultipartiteState(state, dims)


def as_bipartite(s: MultipartiteState, split: int) -> MultipartiteState:
    """Regroup dims into two blocks (prod of the first `split`, prod of the rest).

    The matrix is unchanged; only the subsystem bookkeeping is coarsened.
    """
    if not 0 < split < len(s.dims):
        raise QuditEpiError(f"split {split} not interior to dims {s.dims}")
    left = 1
    for d in s.dims[:split]:
        left *= d
    return MultipartiteState(s.state, (left, s.dim // left))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the left factor is the slower-varying subsystem."""
    return make_density(np.kron(a.mat, b.mat))


def _ptrace_mat(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(dims + dims)
    traced = sorted((i for i in range(n) if i not in keep), reverse=True)
    m = n
    for ax in traced:
        t = np.trace(t, axis1=ax, axis2=ax + m)
        m -= 1
    side = 1
    for i in keep:
        side *= dims[i]
    return np.ascontiguousarray(t.reshape(side, side))


def partial_trace(s: MultipartiteState, keep) -> MultipartiteState:
    """Reduced state on `keep` (a nonempty proper subset of subsystem indices).

    The relative order of the kept subsystems is preserved.
    """
    keep = tuple(sorted(set(int(i) for i in keep)))
    n = len(s.dims)
    if not keep or len(keep) >= n:
        raise QuditEpiError(f"keep={keep} must be a nonempty proper subset of 0..{n - 1}")
    if keep[0] < 0 or keep[-1] >= n:
        raise QuditEpiError(f"keep={keep} out of range for {n} subsystems")
    reduced = _ptrace_mat(s.state.mat, s.dims, keep)
    return MultipartiteState(make_density(reduced), tuple(s.dims[i] for i in keep))


def permute_subsystems(s: MultipartiteState, perm) -> MultipartiteState:
    """Reindex so subsystem i moves to position perm[i]; spectrum is unchanged."""
    perm = tuple(int(p) for p in perm)
    n = len(s.dims)
    if sorted(perm) != list(range(n)):
        raise QuditEpiError(f"perm={perm} is not a permutation of 0..{n - 1}")
    inverse = np.argsort(perm)  # inverse[j] = old index now at position j
    axes = list(inverse) + [n + i for i in inverse]
    t = s.state.mat.reshape(s.dims + s.dims).transpose(axes)
    new_dims = tuple(s.dims[i] for i in inverse)
    mat = np.ascontiguousarray(t.reshape(s.dim, s.dim))
    return MultipartiteState(DensityMatrix(mat, s.state._eigs), new_dims)


def eigenvalues_descending(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues in non-increasing order, as a write-protected array.

    Eigenvalues in [-1e-10, 0) are clipped to zero and the vector renormalized,
    provided the total is within 1e-9 of one; larger deviations are hard errors
    separating float noise from genuinely invalid states.
    """
    eigs = rho.eigenvalues_ascending()
    if eigs[0] < -POSITIVITY_TOL:
        raise ValidationError(f"eigenvalue {eigs[0]:.6e} below -{POSITIVITY_TOL:.1e}")
    vals = np.clip(eigs[::-1], 0.0, None)
    total = float(vals.sum())
    if abs(total - 1.0) > SPECTRUM_SUM_TOL:
        raise ValidationError(f"spectrum sums to {total!r}, off by more than {SPECTRUM_SUM_TOL:.1e}")
    vals = vals / total
    vals.setflags(write=False)
    return vals


def eigenvalues_descending_stack(eigs: np.ndarray) -> np.ndarray:
    """:func:`eigenvalues_descending` on each row of an (N, d) stack of
    ascending eigenvalues, with its clipping, checks and messages."""
    low = eigs[:, 0] < -POSITIVITY_TOL
    if low.any():
        raise ValidationError(f"eigenvalue {eigs[low.argmax(), 0]:.6e} below -{POSITIVITY_TOL:.1e}")
    vals = np.clip(eigs[:, ::-1], 0.0, None)
    total = vals.sum(axis=1)
    off = np.abs(total - 1.0) > SPECTRUM_SUM_TOL
    if off.any():
        raise ValidationError(
            f"spectrum sums to {float(total[off.argmax()])!r}, off by more than {SPECTRUM_SUM_TOL:.1e}"
        )
    return vals / total[:, None]


def commutator(a, b) -> np.ndarray:
    """AB - BA; anti-Hermitian whenever a and b are Hermitian."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise QuditEpiError(f"shapes {a.shape} and {b.shape} differ")
    return a @ b - b @ a


def matrix_distance(a, b) -> float:
    """Max elementwise absolute difference."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise QuditEpiError(f"shapes {a.shape} and {b.shape} differ")
    return float(np.abs(a - b).max())
