"""One-state oracles of the package's stacked routes.

Correctness is argued by computing each operation two independent ways. The
package runs the stacked route; the tests hold it to the route here, which
works on one state, one measurement or one trial at a time. No CLI run
calls anything in this module.

* Streams: :class:`RandomSource` opens one stream (master_seed,
  stream_index) as a new generator and derives a child stream by one index
  mix at a time; ``rand.KeyedStreams.at`` and ``rand.derived_indices`` are
  held to it. :func:`haar_unitary` draws one Haar unitary by its own QR and
  checks; ``rand.haar_unitary`` and ``rand.haar_unitaries`` are held to it.
* One-state kernels: :func:`eigenvalues_descending`, :func:`sample_state`
  and :func:`random_state`, :func:`partial_swap_closed` with its checks
  :func:`check_mixing` and :func:`_check_pair`, and the one-vector
  functionals :func:`prefix_slack`, :func:`entropy_nats`, :func:`majorizes`,
  :func:`shannon_entropy`, :func:`von_neumann_entropy` and
  :func:`entropy_power`, with their tolerances. Each stacked kernel
  (``states.make_density_stack`` and the spectra it returns,
  ``rand.states_from_gaussians``, ``channels.partial_swap_closed_stack``,
  ``states.prefix_slack_rows`` and ``states.entropy_nats_rows``) is held
  to its one-state twin here, bit for bit where its docstring says so.
* States: :class:`MultipartiteState` attaches subsystem dimensions to one
  validated state, and :func:`partial_trace` reduces it.
* Channel: :func:`partial_swap_conjugation` (build U, conjugate, trace out)
  checks :func:`partial_swap_closed`; :func:`partial_swap_global_closed`
  (extended operators) and the dense conjugation of the permuted product
  (:func:`permute_subsystems`, :func:`partial_swap_joint`) check
  ``channels.partial_swap_global``; :func:`partial_swap_joint` checks
  ``channels.partial_swap_joint_stack``.
* Conditioning: :class:`MeasurementSet`, :func:`condition_all`,
  :func:`condition_bilocal` and :func:`conditional_spectrum` are the
  validated one-state conditioning that ``measurement.condition_all_stack``
  must reproduce bit for bit at every kept outcome of its grid;
  :func:`_check_normalization` is its check of each outcome total, summed
  left to right by :func:`_sum_in_order` as ``states.ordered_sum``
  sums. The stacked route checks a state's total before its outcomes, this
  route after, so on a state failing both they raise different messages.
* Trials: :func:`trial_source` is a trial's stream key,
  :func:`_theorem_slack` the theorem's slack from validated outcomes,
  :func:`_lemma_trial` one lemma trial by these routes, drawn by
  :func:`_bilocal_setting`, and :func:`_conjecture_trial` one conjecture
  trial by the dense channel and per-state validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qudit_epi import harness
from qudit_epi.channels import partial_swap_global
from qudit_epi.errors import QuditEpiError, ValidationError
from qudit_epi.harness import TrialBlock
from qudit_epi.measurement import PROB_FLOOR, PROB_SUM_TOL, check_complete, condition_projective_all
from qudit_epi.rand import (
    _HAAR_RETRIES,
    _MASK64,
    UNITARY_TOL,
    _philox_key,
    _splitmix64,
    normalize_state_kind,
    state_columns,
)
from qudit_epi.states import POSITIVITY_TOL, SPECTRUM_SUM_TOL, DensityMatrix, make_density

MAJORIZATION_TOL = 1e-9
DISTRIBUTION_NEG_TOL = 1e-10
DISTRIBUTION_SUM_TOL = 1e-9


# ----------------------------------------------------------------- streams


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


# ------------------------------------------------------- one-state kernels


def eigenvalues_descending(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues in non-increasing order, as a write-protected array.

    Eigenvalues in [-1e-10, 0) are clipped to zero and the vector renormalized
    by its total, added left to right (:func:`_sum_in_order`), provided the
    total is within 1e-9 of one; larger deviations are hard errors
    separating float noise from genuinely invalid states.
    """
    eigs = rho.eigenvalues_ascending()
    if not eigs[0] >= -POSITIVITY_TOL:
        raise ValidationError(f"eigenvalue {eigs[0]:.6e} below -{POSITIVITY_TOL:.1e}")
    vals = np.clip(eigs[::-1], 0.0, None)
    total = _sum_in_order(vals.tolist())
    if not abs(total - 1.0) <= SPECTRUM_SUM_TOL:
        raise ValidationError(f"spectrum sums to {total!r}, off by more than {SPECTRUM_SUM_TOL:.1e}")
    vals = vals / total
    vals.setflags(write=False)
    return vals


def complex_gaussian(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix of standard complex Gaussians: the real parts, then the
    imaginary parts, each N(0, 1) in row-major order."""
    return gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))


def sample_state(gen: np.random.Generator, d: int, kind: str = "ginibre", rank: int | None = None) -> DensityMatrix:
    """Draw a random density matrix from an already-open generator.

    pure    : |psi><psi| with psi a normalized complex Gaussian vector.
    ginibre : G G† / Tr(G G†) with G a d x d complex Gaussian matrix, i.e. the
              Hilbert-Schmidt measure.
    rank    : same with a d x rank G.
    """
    kind = normalize_state_kind(kind)
    g = complex_gaussian(gen, d, state_columns(d, kind, rank))
    if kind == "pure":
        psi = g[:, 0]
        psi /= np.linalg.norm(psi)
        return make_density(np.outer(psi, psi.conj()))
    m = g @ g.conj().T
    return make_density(m / np.trace(m).real)


def random_state(d: int, kind: str, rng: RandomSource, rank: int | None = None) -> DensityMatrix:
    return sample_state(rng.generator(), d, kind, rank)


def check_mixing(tau: float) -> float:
    """Validate a mixing parameter; must lie in [0, 1]."""
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"mixing parameter must be in [0, 1], got {tau}")
    return tau


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


def prefix_slack(dominating: np.ndarray, dominated: np.ndarray) -> tuple[float, float]:
    """Majorization prefix comparison of two descending-sorted vectors.

    Returns (min_k sum(dominating[:k]) - sum(dominated[:k]), total difference).
    A nonnegative first value (up to tolerance) means dominated < dominating
    in the majorization order.
    """
    diff = np.cumsum(dominating) - np.cumsum(dominated)
    return float(diff.min()), float(diff[-1])


def entropy_nats(p) -> float:
    """Shannon entropy -sum p ln p in nats; zero entries contribute nothing.
    The terms add left to right (:func:`_sum_in_order`).

    Unvalidated: the caller guarantees p >= 0 (see :func:`shannon_entropy`).
    """
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0.0]
    return -_sum_in_order((p * np.log(p)).tolist())


def majorizes(n, m, tol: float = MAJORIZATION_TOL) -> bool:
    """True iff m is majorized by n (every prefix of n↓ dominates m↓'s).

    Vectors of unequal length are zero-padded; totals must agree within tol or
    the comparison is refused outright.
    """
    nv = np.asarray(n, dtype=np.float64)
    mv = np.asarray(m, dtype=np.float64)
    size = max(len(nv), len(mv))
    nv = np.pad(nv, (0, size - len(nv)))
    mv = np.pad(mv, (0, size - len(mv)))
    nv = np.sort(nv)[::-1]
    mv = np.sort(mv)[::-1]
    min_slack, total_diff = prefix_slack(nv, mv)
    if abs(total_diff) > tol:
        raise QuditEpiError(f"totals differ by {total_diff!r} (> {tol:.1e})")
    return min_slack >= -tol


def shannon_entropy(p) -> float:
    """-sum p ln p in nats with 0 ln 0 = 0; validates p as a distribution."""
    v = np.asarray(p, dtype=np.float64)
    if v.size and float(v.min()) < -DISTRIBUTION_NEG_TOL:
        raise ValidationError(f"negative entry {float(v.min())!r}")
    total = float(v.sum())
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        raise ValidationError(f"entries sum to {total!r}")
    return entropy_nats(np.clip(v, 0.0, None))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum, in nats; zero for pure states, ln d for I/d."""
    return entropy_nats(eigenvalues_descending(rho))


def entropy_power(x, kappa: float) -> float:
    """exp(kappa * S(x)) for a state or a probability vector (e.g. a spectrum).

    Permutation-symmetric, Schur concave, and confined to [1, d^kappa].
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if isinstance(x, DensityMatrix):
        s = von_neumann_entropy(x)
    else:
        s = shannon_entropy(x)
    return math.exp(kappa * s)


# ----------------------------------------------------------------- states


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


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the left factor is the slower-varying subsystem."""
    return make_density(np.kron(a.mat, b.mat))


def matrix_distance(a, b) -> float:
    """Max elementwise absolute difference."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise QuditEpiError(f"shapes {a.shape} and {b.shape} differ")
    return float(np.abs(a - b).max())


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


# ---------------------------------------------------------------- channel


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


def partial_swap_conjugation(rho1: DensityMatrix, rho2: DensityMatrix, tau: float) -> DensityMatrix:
    """The partial swap computed by conjugation with U and tracing the second
    system: the oracle of the closed form."""
    d = _check_pair(rho1, rho2)
    tau = check_mixing(tau)
    u = partial_swap_unitary(d, tau)
    big = u @ np.kron(rho1.mat, rho2.mat) @ u.conj().T
    reduced = np.trace(big.reshape(d, d, d, d), axis1=1, axis2=3)
    return make_density(np.ascontiguousarray(reduced))


def partial_swap_global_closed(s1: MultipartiteState, s2: MultipartiteState, tau: float) -> MultipartiteState:
    """Oracle for ``channels.partial_swap_global`` via extended operators, on
    one pair of (X, E1) and (X, E2) states.

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


def _bilocal_channel(s1, s2, tau: float):
    """:func:`partial_swap_global` of one (X, E1), (X, E2) setting, as the
    (Y, E1, E2) state."""
    (d, e1), (_, e2) = s1.dims, s2.dims
    out, _ = partial_swap_global(s1.state.mat[None], s2.state.mat[None], np.array([tau]), d)
    return multipartite(DensityMatrix(out[0]), (d, e1, e2))


# ----------------------------------------------------------- conditioning


def _sum_in_order(terms) -> float:
    """The terms added left to right. The builtin sum compensates its float
    sums since Python 3.12, so its last bit depends on the interpreter."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _check_normalization(probabilities) -> None:
    total = _sum_in_order(probabilities)
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValidationError(f"outcome probabilities sum to {total!r}")


@dataclass(frozen=True)
class MeasurementSet:
    """Rank-1 projective measurement onto the columns of a validated unitary.

    Outcome j projects onto basis[:, j]; there are as many outcomes as the
    environment dimension.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __len__(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ConditionalOutcome:
    """One measurement outcome: its index, probability, and conditioned state.

    Outcomes at or below PROB_FLOOR carry no state; they are flagged negligible
    and contribute nothing to expected functionals.
    """

    outcome_index: object
    probability: float
    state: DensityMatrix | None

    @property
    def negligible(self) -> bool:
        return self.state is None


def projective_from_unitary(u) -> MeasurementSet:
    """Measurement in the basis of a unitary's columns; complete by construction."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise QuditEpiError(f"expected a square matrix, got {u.shape}")
    check_complete(u)
    return MeasurementSet(np.ascontiguousarray(u))


def _outcome(index, block: np.ndarray) -> ConditionalOutcome:
    p = float(np.trace(block).real)
    if p <= PROB_FLOOR:
        return ConditionalOutcome(index, p, None)
    return ConditionalOutcome(index, p, make_density(block / p))


def condition_all(s: MultipartiteState, m: MeasurementSet) -> list[ConditionalOutcome]:
    """Condition the X part of an (X, E) state on every outcome of a
    measurement on E; checks probability normalization."""
    if len(s.dims) != 2:
        raise QuditEpiError(f"conditioning expects a bipartite (X, E) state, got dims {s.dims}")
    dx, de = s.dims
    if m.dim != de:
        raise QuditEpiError(f"measurement dim {m.dim} does not match environment dim {de}")
    blocks = condition_projective_all(s.state.mat.reshape(dx, de, dx, de), m.basis)
    outcomes = [_outcome(j, block) for j, block in enumerate(blocks)]
    _check_normalization(o.probability for o in outcomes)
    return outcomes


def condition_bilocal(
    s: MultipartiteState, m1: MeasurementSet, m2: MeasurementSet
) -> list[list[ConditionalOutcome]]:
    """Outcome grid for local measurements on both environments of (Y, E1, E2).

    Entry [j][k] carries the joint probability p_jk and the conditioned Y
    state; when the environment marginal is a product, p_jk factorizes into
    the marginal outcome probabilities (the caller asserts that, not us).
    It is :func:`condition_all` on (Y, E1 E2) in the product basis
    m1 (x) m2, with outcome j * len(m2) + k renamed (j, k).
    """
    if len(s.dims) != 3:
        raise QuditEpiError(f"expected a (Y, E1, E2) state, got dims {s.dims}")
    _, e1, e2 = s.dims
    if m1.dim != e1 or m2.dim != e2:
        raise QuditEpiError(
            f"measurement dims ({m1.dim}, {m2.dim}) do not match environments ({e1}, {e2})"
        )
    n2 = len(m2)
    flat = condition_all(as_bipartite(s, 1), MeasurementSet(np.kron(m1.basis, m2.basis)))
    return [
        [ConditionalOutcome((j, k), o.probability, o.state) for k, o in enumerate(flat[j * n2 : (j + 1) * n2])]
        for j in range(len(m1))
    ]


def conditional_spectrum(outcome: ConditionalOutcome) -> np.ndarray:
    """Eigenvalues of the conditioned state, non-increasing."""
    if outcome.negligible:
        raise QuditEpiError(
            f"outcome {outcome.outcome_index} has probability {outcome.probability!r}, "
            "at or below the floor; it has no conditional state"
        )
    return eigenvalues_descending(outcome.state)


def expected_entropy_power(outcomes, kappa: float) -> float:
    """Probability-weighted entropy power over measurement outcomes.

    Negligible outcomes (no state) contribute zero.
    """
    total = 0.0
    for o in outcomes:
        if o.negligible:
            continue
        total += o.probability * entropy_power(o.state, kappa)
    return total


# ----------------------------------------------------------------- trials


def conditional_vn_entropy(s: MultipartiteState) -> float:
    """S(AB) - S(B) for a bipartite state; negative for entangled inputs."""
    if len(s.dims) != 2:
        raise QuditEpiError(f"expected a bipartite state, got dims {s.dims}")
    s_ab = von_neumann_entropy(s.state)
    s_b = von_neumann_entropy(partial_trace(s, (1,)).state)
    return s_ab - s_b


def _conjecture_slack(joint, tau: float) -> float:
    """Entropy-conditional slack for a (X1, X2, E) state under the swap channel.

    The channel is the swap unitary on (X1, X2) tensored with the identity on
    E, followed by tracing out X2.
    """
    s_out = conditional_vn_entropy(partial_swap_joint(joint, tau))
    s_1 = conditional_vn_entropy(partial_trace(joint, (0, 2)))
    s_2 = conditional_vn_entropy(partial_trace(joint, (1, 2)))
    return s_out - tau * s_1 - (1.0 - tau) * s_2



def _theorem_slack(tau: float, kappa: float, out1, out2, grid) -> float:
    """The per-measurement slack from validated outcomes: the q1 x q2-weighted
    entropy power of the conditioned outputs minus the tau-mixture of the
    conditioned-input expectations."""
    lhs = _sum_in_order(
        out1[j].probability * out2[k].probability * entropy_power(o.state, kappa)
        for j, row in enumerate(grid)
        for k, o in enumerate(row)
        if not (o.negligible or out1[j].negligible or out2[k].negligible)
    )
    rhs1 = expected_entropy_power(out1, kappa)
    rhs2 = expected_entropy_power(out2, kappa)
    return lhs - tau * rhs1 - (1.0 - tau) * rhs2


def trial_source(cfg, experiment: str, index: int) -> RandomSource:
    """The stream key of trial `index` of `experiment`: (seed, the
    experiment's base stream index + index)."""
    return RandomSource(cfg.seed, harness._STREAM_BASE[experiment] + index)


def _bilocal_setting(cfg, gen: np.random.Generator, index: int):
    """One trial's setting of theorem or lemma from its own generator. Draw
    order: tau, state1, state2, basis1, basis2."""
    tau = harness._draw_tau(cfg, index, gen)
    s1 = multipartite(sample_state(gen, cfg.d * cfg.d_e1, cfg.state_kind, cfg.rank), (cfg.d, cfg.d_e1))
    s2 = multipartite(sample_state(gen, cfg.d * cfg.d_e2, cfg.state_kind, cfg.rank), (cfg.d, cfg.d_e2))
    m1 = projective_from_unitary(haar_unitary(cfg.d_e1, gen))
    m2 = projective_from_unitary(haar_unitary(cfg.d_e2, gen))
    return tau, s1, s2, m1, m2


def _conditioned_pieces(joint, s1, s2, m1, m2):
    """Validated conditioning of the inputs and the joint output (Y, E1, E2)
    by the one-state routes: the outcomes of each input, the outcome grid of
    the output and the output's |total probability - 1|."""
    out1 = condition_all(s1, m1)
    out2 = condition_all(s2, m2)
    grid = condition_bilocal(joint, m1, m2)
    prob_norm = abs(_sum_in_order(o.probability for row in grid for o in row) - 1.0)
    return out1, out2, grid, prob_norm


def _lemma_trial(cfg, index):
    """Lemma trial `index` alone, as a block of one row, by the one-state
    routes: its own generator, one setting and a loop over the outcome pairs.

    For every outcome pair above the probability floor: the conditioned
    channel output must equal the addition rule applied to the conditioned
    inputs (identity residual), and its spectrum must be majorized by the
    tau-mixture of the conditioned input spectra (prefix slacks).
    """
    gen = trial_source(cfg, "lemma", index).generator()
    tau, s1, s2, m1, m2 = _bilocal_setting(cfg, gen, index)
    out1, out2, grid, prob_norm = _conditioned_pieces(_bilocal_channel(s1, s2, tau), s1, s2, m1, m2)

    spectra1 = [None if o.negligible else conditional_spectrum(o) for o in out1]
    spectra2 = [None if o.negligible else conditional_spectrum(o) for o in out2]

    identity_resid = 0.0
    factor_resid = 0.0
    total_resid = 0.0
    min_slack = math.inf
    negligible = 0
    for j, row in enumerate(grid):
        for k, o in enumerate(row):
            factor_resid = max(factor_resid, abs(o.probability - out1[j].probability * out2[k].probability))
            if o.negligible or out1[j].negligible or out2[k].negligible:
                negligible += 1
                continue
            target = partial_swap_closed(out1[j].state, out2[k].state, tau)
            identity_resid = max(identity_resid, matrix_distance(o.state.mat, target.mat))
            mix = tau * spectra1[j] + (1.0 - tau) * spectra2[k]
            slack, total = prefix_slack(mix, conditional_spectrum(o))
            min_slack = min(min_slack, slack)
            total_resid = max(total_resid, abs(total))

    slacks = {"lemma_majorization": [min_slack]}
    residuals = {
        "lemma_identity": [identity_resid],
        "major_total": [total_resid],
        "factorization": [factor_resid],
        "prob_norm": [prob_norm],
    }
    flags = harness._verdict(cfg, slacks, residuals)
    return TrialBlock("lemma", range(index, index + 1), [tau], (), slacks, residuals, flags, [negligible])


def _conjecture_trial(cfg, index):
    """Conjecture trial `index` alone, as a block of one row, by the one-state
    routes: its own generator, the dense joint channel and per-state
    validation. Draw order: tau, the joint state (or its two legs), the
    perturbation if a candidate is re-checked, state 1, state 2.

    Main arm: a joint (X1, X2, E) state with E of dim --env-dim1, a product of
    two system legs when E is trivial; its slack is re-checked after a 1e-8
    perturbation toward a ginibre state when it is below -10*tol. Control
    arm: product-shaped (X1, E1) x (X2, E2) inputs through the bilocal
    channel, conditioning on both environments.
    """
    gen = trial_source(cfg, "conjecture", index).generator()
    tau = harness._draw_tau(cfg, index, gen)
    d, de = cfg.d, cfg.d_e1
    threshold = -10.0 * cfg.tolerance
    if de == 1:
        rho1 = sample_state(gen, d, cfg.state_kind, cfg.rank)
        rho2 = sample_state(gen, d, cfg.state_kind, cfg.rank)
        joint = multipartite(make_density(np.kron(rho1.mat, rho2.mat)), (d, d, 1))
    else:
        joint = multipartite(sample_state(gen, d * d * de, cfg.state_kind, cfg.rank), (d, d, de))
    slack = _conjecture_slack(joint, tau)

    perturbed_slack = None
    if slack < threshold:
        bump = sample_state(gen, d * d * de, "ginibre")
        eps = 1e-8
        perturbed = multipartite(make_density((1.0 - eps) * joint.state.mat + eps * bump.mat), joint.dims)
        perturbed_slack = _conjecture_slack(perturbed, tau)
    reverified = perturbed_slack is not None and perturbed_slack < threshold

    s1 = multipartite(sample_state(gen, d * cfg.d_e1, cfg.state_kind, cfg.rank), (d, cfg.d_e1))
    s2 = multipartite(sample_state(gen, d * cfg.d_e2, cfg.state_kind, cfg.rank), (d, cfg.d_e2))
    mixed = _bilocal_channel(s1, s2, tau)
    control = (
        conditional_vn_entropy(as_bipartite(mixed, 1))
        - tau * conditional_vn_entropy(s1)
        - (1.0 - tau) * conditional_vn_entropy(s2)
    )

    slacks = {"conjecture": [slack], "conjecture_perturbed": [perturbed_slack], "conjecture_control": [control]}
    soft = set(slacks) - ({"conjecture"} if de == 1 else set())
    flags = {"reverified_candidate": [not reverified], **harness._verdict(cfg, slacks, {}, soft)}
    return TrialBlock("conjecture", range(index, index + 1), [tau], (), slacks, {}, flags, [0])
