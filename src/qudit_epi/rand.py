"""Reproducible randomness: counter-based streams plus stacked state and
Haar unitary samplers.

Streams are Philox4x64 generators keyed by (master_seed, stream_index): the
same pair always replays the identical sequence and distinct pairs give
statistically independent streams, which is what lets trials run in any order
or in parallel without coordination. The one stream API is
:class:`KeyedStreams`, which opens stream (master_seed, i), and
:func:`derived_indices`, which mixes child indices into uint64 arrays of
stream indices. ``tests/oracles.py`` holds the one-stream route they are
tested against. Callers hand rows of normals here: this module owns their
layout (:func:`complex_gaussians`), the Haar draw and its replay.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import QuditEpiError, UsageError
from .measurement import completeness_residual
from .states import make_density_stack

RNG_ALGORITHM = "philox4x64"

UNITARY_TOL = 1e-12
_HAAR_RETRIES = 3

_MIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x):
    """SplitMix64's mix of x, a Python int or, elementwise, a uint64 array
    of at least one dimension (array arithmetic wraps mod 2^64 without a
    warning; numpy scalar arithmetic would warn)."""
    x = (x + _MIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _philox_key(master_seed: int, stream_index: int) -> list[int]:
    """The Philox key words of stream (master_seed, stream_index), each taken
    mod 2^64 as a Python int, so a numpy integer keys the stream its value names."""
    return [int(master_seed) & _MASK64, int(stream_index) & _MASK64]


def derived_indices(stream_indices: np.ndarray, *indices) -> np.ndarray:
    """The child stream index of each s of a uint64 array of at least one
    dimension: each of `indices` in turn is mixed in as
    s <- splitmix64(s ^ index). Each of `indices` is a non-negative int or a
    uint64 array; all broadcast together.
    """
    s = stream_indices
    for ix in indices:
        s = _splitmix64(s ^ ix)
    return s


class KeyedStreams:
    """One Philox generator, re-keyed in place for one stream after another.

    ``at(i)`` returns the shared generator set to the start of stream
    (master_seed, i): it draws exactly what a new Philox generator keyed by
    that pair draws, for a fraction of the cost of one.
    The next ``at`` call re-keys it, so finish one stream's draws first.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._bits = np.random.Philox(key=np.array(_philox_key(master_seed, 0), dtype=np.uint64))
        # A fresh state: counter 0, an empty buffer and no cached half-word.
        # Its words are Python ints, which the state setter reads about three
        # times faster than uint64 arrays.
        fresh = self._bits.state
        fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        self._fresh = fresh
        self._gen = np.random.Generator(self._bits)

    def at(self, stream_index: int) -> np.random.Generator:
        self._fresh["state"]["key"] = _philox_key(self.master_seed, stream_index)
        self._bits.state = self._fresh
        return self._gen


def normal_count(shapes) -> int:
    """Standard normals that complex Gaussians of `shapes`, (rows, cols) pairs, take."""
    return 2 * sum(rows * cols for rows, cols in shapes)


def complex_gaussians(normals: np.ndarray, shapes) -> list[np.ndarray]:
    """The (..., rows, cols) complex Gaussian stacks of `shapes`, in order,
    from the leading columns of (..., L) standard normals: real parts, then
    imaginary parts, each in row-major order."""
    ends = np.cumsum([0] + [normal_count([shape]) for shape in shapes]).tolist()
    lead = normals.shape[:-1]
    parts = [normals[..., lo:hi].reshape(*lead, 2, *shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]
    return [x[..., 0, :, :] + 1j * x[..., 1, :, :] for x in parts]


def _haar_checked(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q times the phases of R's diagonal, exactly Haar (Mezzadri, Notices
    AMS 54, 592 (2007)), for each QR of an (..., e, e) Gaussian stack, and the
    (...) mask of those with no zero on R's diagonal and |U†U - I| within
    UNITARY_TOL (:func:`completeness_residual`); the rest are garbage."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(diag)
    ok = mags.min(axis=-1) != 0.0
    u = q * (diag / np.where(mags == 0.0, 1.0, mags))[..., None, :]
    return u, ok & (completeness_residual(u) <= UNITARY_TOL)


def haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary: :func:`_haar_checked` of one draw,
    redrawn while it fails, up to 3 draws in all."""
    if d < 1:
        raise QuditEpiError(f"unitary dimension must be >= 1, got {d}")
    for _ in range(_HAAR_RETRIES):
        u, ok = _haar_checked(complex_gaussians(gen.standard_normal(normal_count([(d, d)])), [(d, d)])[0])
        if ok:
            return u
    raise QuditEpiError(f"no unitary within {UNITARY_TOL:.0e} after {_HAAR_RETRIES} draws at d={d}")


def haar_unitaries(normals: np.ndarray, start: int, dims, reopen) -> list[np.ndarray]:
    """One (..., e, e) Haar stack per e in `dims`, one batched QR each, from
    the Gaussians each row of (..., L) normals holds from column `start` on.
    A row that fails a check is replayed as haar_unitary retries: reopen(row)
    gives the row's generator at its first normal (row an index tuple), the
    replay skips `start` normals, draws every factor by haar_unitary and then
    redraws in place the row's normals after the Haar block."""
    shapes = [(e, e) for e in dims]
    end = start + normal_count(shapes)
    checked = [_haar_checked(g) for g in complex_gaussians(normals[..., start:end], shapes)]
    unitaries = [u for u, _ in checked]
    for row in map(tuple, np.argwhere(~np.all([ok for _, ok in checked], axis=0)).tolist()):
        gen = reopen(row)
        gen.standard_normal(start)
        for u, e in zip(unitaries, dims):
            u[row] = haar_unitary(e, gen)
        gen.standard_normal(out=normals[row][end:])
    return unitaries


def check_integer(name: str, value) -> None:
    """Reject a dimension, count, seed or rank that is not an integer: a
    float would fail inside the trials, and a bool would count as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")


def state_columns(d: int, kind: str, rank: int | None) -> int:
    """Columns of the d x cols complex Gaussian matrix one sampled state draws."""
    kind = normalize_state_kind(kind)
    if d < 2:
        raise QuditEpiError(f"state dimension must be >= 2, got {d}")
    if kind == "pure":
        return 1
    if kind == "ginibre":
        return d
    check_integer("rank", rank)
    if not 1 <= rank <= d:
        raise QuditEpiError(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
    return int(rank)


def states_from_gaussians(g: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Random states from an (N, d, cols) stack g of complex Gaussians
    (:func:`state_columns` gives cols): |psi><psi| with psi the normalized
    first column for a pure kind, else G G† / Tr(G G†), the Hilbert-Schmidt
    measure at full rank.

    Returns the validated density stack and its descending spectra (see
    :func:`make_density_stack`); row i equals, bit for bit, the state that
    ``sample_state`` in ``tests/oracles.py`` draws as g[i]. The pure-state
    norm is taken as the dot products re.re + im.im, the way np.linalg.norm
    computes it.
    """
    if normalize_state_kind(kind) == "pure":
        psi = g[:, :, 0]
        re, im = psi.real[:, None, :], psi.imag[:, None, :]
        sq = re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)
        psi = psi / np.sqrt(sq[:, :, 0])
        return make_density_stack(psi[:, :, None] * psi.conj()[:, None, :])
    m = g @ g.conj().swapaxes(1, 2)
    return make_density_stack(m / np.trace(m, axis1=1, axis2=2).real[:, None, None])


# The documented state-kind spellings and the sampler each one names.
_STATE_KINDS = {"pure": "pure", "ginibre": "ginibre", "rank": "rank", "rank-k": "rank"}


def normalize_state_kind(kind: str) -> str:
    """The sampler a state kind names: pure, ginibre, or rank for rank-k."""
    if not isinstance(kind, str) or kind not in _STATE_KINDS:
        raise UsageError(f"unknown state kind {kind!r}; expected pure, ginibre or rank-k")
    return _STATE_KINDS[kind]
