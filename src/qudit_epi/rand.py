"""Reproducible randomness: counter-based streams plus state/unitary samplers.

Streams are Philox4x64 generators keyed by (master_seed, stream_index): the
same pair always replays the identical sequence and distinct pairs give
statistically independent streams, which is what lets trials run in any order
or in parallel without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuditEpiError
from .states import DensityMatrix, make_density

RNG_ALGORITHM = "philox4x64"

UNITARY_TOL = 1e-12
_HAAR_RETRIES = 3

_MIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _MIX_GAMMA) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomSource:
    """A named point in seed space: (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.stream_index & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *indices: int) -> "RandomSource":
        """Child stream obtained by mixing indices into the stream index."""
        s = self.stream_index & 0xFFFFFFFFFFFFFFFF
        for ix in indices:
            s = _splitmix64(s ^ (int(ix) & 0xFFFFFFFFFFFFFFFF))
        return RandomSource(self.master_seed, s)


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


def random_unitary(d: int, rng: RandomSource) -> np.ndarray:
    return haar_unitary(d, rng.generator())


def sample_state(gen: np.random.Generator, d: int, kind: str = "ginibre", rank: int | None = None) -> DensityMatrix:
    """Draw a random density matrix from an already-open generator.

    pure    : |psi><psi| with psi a normalized complex Gaussian vector.
    ginibre : G G† / Tr(G G†) with G a d x d complex Gaussian matrix, i.e. the
              Hilbert-Schmidt measure.
    rank    : same with a d x rank G.
    """
    kind = normalize_state_kind(kind)
    if d < 2:
        raise QuditEpiError(f"state dimension must be >= 2, got {d}")
    if kind == "pure":
        psi = complex_gaussian(gen, d, 1)[:, 0]
        psi /= np.linalg.norm(psi)
        return make_density(np.outer(psi, psi.conj()))
    if kind == "ginibre":
        cols = d
    else:
        if rank is None or not 1 <= int(rank) <= d:
            raise QuditEpiError(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
        cols = int(rank)
    g = complex_gaussian(gen, d, cols)
    m = g @ g.conj().T
    return make_density(m / np.trace(m).real)


def random_state(d: int, kind: str, rng: RandomSource, rank: int | None = None) -> DensityMatrix:
    return sample_state(rng.generator(), d, kind, rank)


def normalize_state_kind(kind: str) -> str:
    k = kind.strip().lower()
    aliases = {
        "pure": "pure",
        "pure-haar": "pure",
        "ginibre": "ginibre",
        "mixed-ginibre": "ginibre",
        "rank": "rank",
        "rank-k": "rank",
        "mixed-rank-k": "rank",
    }
    if k not in aliases:
        raise ValueError(f"unknown state kind {kind!r}; expected pure, ginibre or rank-k")
    return aliases[k]
