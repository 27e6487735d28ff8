"""Reproducible randomness: counter-based streams plus stacked state and
Haar unitary samplers.

Streams are Philox4x64 generators keyed by (master_seed, stream_index): the
same pair always replays the identical sequence and distinct pairs give
statistically independent streams, which is what lets trials run in any order
or in parallel without coordination.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import QuditEpiError, UsageError
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
    """The Philox key words of stream (master_seed, stream_index), each taken mod 2^64."""
    return [master_seed & _MASK64, stream_index & _MASK64]


class RandomSource(NamedTuple):
    """A named point in seed space: (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(_philox_key(self.master_seed, self.stream_index), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *indices: int) -> "RandomSource":
        """Child stream obtained by mixing indices into the stream index."""
        s = self.stream_index & _MASK64
        for ix in indices:
            s = _splitmix64(s ^ (int(ix) & _MASK64))
        return RandomSource(self.master_seed, s)


def derived_indices(stream_indices: np.ndarray, *indices) -> np.ndarray:
    """The stream index of ``RandomSource(seed, s).derive(*indices)`` for each
    s of a uint64 array of at least one dimension, by the same mix. Each of
    `indices` is a non-negative int or a uint64 array; all broadcast together.
    """
    s = stream_indices
    for ix in indices:
        s = _splitmix64(s ^ ix)
    return s


class KeyedStreams:
    """One Philox generator, re-keyed in place for one stream after another.

    ``at(i)`` returns the shared generator set to the start of stream
    (master_seed, i): it draws exactly what ``RandomSource(master_seed,
    i).generator()`` draws, for a fraction of the cost of a new generator.
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


def complex_gaussian(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix of standard complex Gaussians (real and imaginary parts N(0,1))."""
    return gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))


def haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary.

    QR of a complex Ginibre matrix with the diagonal phase correction that
    makes the distribution exactly Haar. Self-checks unitarity to 1e-12 and
    resamples up to 3 times before giving up.
    """
    if d < 1:
        raise QuditEpiError(f"unitary dimension must be >= 1, got {d}")
    for _ in range(_HAAR_RETRIES):
        q, r = np.linalg.qr(complex_gaussian(gen, d, d))
        diag = np.diagonal(r)
        mags = np.abs(diag)
        if mags.min() == 0.0:
            continue
        u = q * (diag / mags)
        if float(np.abs(u.conj().T @ u - np.eye(d)).max()) <= UNITARY_TOL:
            return u
    raise QuditEpiError(f"no unitary within {UNITARY_TOL:.0e} after {_HAAR_RETRIES} draws at d={d}")


def haar_unitaries(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`haar_unitary`'s first draw, with its checks, on each matrix of
    an (..., e, e) stack of complex Gaussians, in one batched QR.

    Returns the unitaries and the (...) mask of rows that pass; a passing row
    is bit for bit what haar_unitary returns when its first draw is that
    row. A failing row is garbage: redraw it with haar_unitary from the
    start of its stream, so that its retries replay.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(diag)
    ok = mags.min(axis=-1) != 0.0
    u = q * (diag / np.where(mags == 0.0, 1.0, mags))[..., None, :]
    residual = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(g.shape[-1])).max(axis=(-2, -1))
    return u, ok & (residual <= UNITARY_TOL)


def state_columns(d: int, kind: str, rank: int | None) -> int:
    """Columns of the d x cols complex Gaussian matrix one sampled state draws."""
    kind = normalize_state_kind(kind)
    if d < 2:
        raise QuditEpiError(f"state dimension must be >= 2, got {d}")
    if kind == "pure":
        return 1
    if kind == "ginibre":
        return d
    if rank is None or not 1 <= int(rank) <= d:
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
    if kind not in _STATE_KINDS:
        raise UsageError(f"unknown state kind {kind!r}; expected pure, ginibre or rank-k")
    return _STATE_KINDS[kind]
