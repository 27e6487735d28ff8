"""Randomized experiments over the partial-swap channel.

Five experiment families:

* lemma      -- the conditional output of the bilocal channel equals the
                addition rule applied to the conditioned inputs, and its
                spectrum is majorized by the mixed conditional spectra.
* theorem    -- conditional entropy power inequality, per-measurement form:
                asserted at the slack's worst case that a hill climb over
                product bases U1 (x) U2 finds, starting from the Haar pair.
* qepi       -- unconditional entropy power inequality plus the spectral
                majorization it rests on.
* concavity  -- midpoint concavity of exp(kappa * H) on the simplex inside
                the proven window kappa <= 1/(ln d)^2.
* conjecture -- counterexample search for the conditional-entropy version with
                an arbitrary (possibly entangled) joint environment.

Every trial derives all of its randomness from (seed, experiment base + trial
index), so trials can run in any order or in parallel and replay exactly.

Trials run in blocks. A block function takes each trial's tau and its stream
from one generator that :func:`_trial_streams` re-keys per trial, and draws
that trial's values in the order of the one-trial code. Each experiment takes
its kappas and their slack keys from :func:`_kappa_grid`.
qepi and concavity compute a block as stacked (N, d, d) arrays: they
validate, mix and take spectra and entropies of the whole block at once.
theorem stacks every step of a block: the setting draws, the global channel
(one :func:`partial_swap_global` call), one lockstep climb
(:func:`climb_product_basis`) over all their kappas and restarts, and the
validated conditioning at the pairs found. Either way every value equals what
the trial alone computes, bit for bit, so no record depends on the block size
or --parallel. lemma and conjecture run trial by trial within a block.
:func:`_block_size` sizes the blocks. A block that raises is rerun trial by
trial, so the error names the first failing trial. :func:`_run_blocks` hands
the caller one block's records at a time, in index order, whether the block
ran in this process or in the pool; a serial block runs only when the caller
asks for it, so a caller that drops each block before asking for the next
holds one block of records, and :func:`summarize` folds them in one pass.
The pool runs at most :data:`_WINDOW_PER_WORKER` blocks per worker ahead of
the caller.

A trial function only computes slacks (must be >= minus the tolerance) and
residuals (must be <= the tolerance); one verdict rule, :func:`_verdict`,
turns them into pass flags, skipping the slacks a trial names as diagnostics.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._version import __version__
from .channels import partial_swap_closed, partial_swap_closed_stack, partial_swap_global, partial_swap_joint
from .entropy import (
    CLIMB_RESTARTS,
    climb_product_basis,
    conditional_vn_entropy,
    entropy_nats_rows,
    entropy_power,
    expected_entropy_power,
    kappa_bounds,
    prefix_slack,
    prefix_slack_rows,
    projective_entropy_power,
)
from .errors import QuditEpiError, UsageError
from .measurement import (
    check_complete,
    condition_all,
    condition_all_stack,
    condition_bilocal,
    conditional_spectrum,
    projective_from_unitary,
)
from .rand import (
    RNG_ALGORITHM,
    KeyedStreams,
    RandomSource,
    haar_unitaries,
    haar_unitary,
    normalize_state_kind,
    sample_state,
    state_columns,
    states_from_gaussians,
)
from .states import (
    DensityMatrix,
    as_bipartite,
    eigenvalues_descending_stack,
    make_density,
    matrix_distance,
    multipartite,
    partial_trace,
)

MAX_DIM = 6
MAX_ENV_DIM = 4
MAX_TOTAL_DIM = 576

EXPERIMENTS = ("lemma", "theorem", "qepi", "concavity", "conjecture")

# Base stream index per experiment: `all --seed S` and a standalone
# `verify-<name> --seed S` replay identical trials.
_STREAM_BASE = {name: (i + 1) << 40 for i, name in enumerate(EXPERIMENTS)}

_FORCED_TAUS = (0.0, 0.5, 1.0)

# Trials per block of qepi and concavity, which compute a block as stacked
# (N, d, d) arrays. A qepi or concavity trial costs about 0.1 ms, less than a
# pool worker's first block costs to start, so their blocks are not split
# further to give each --parallel worker one.
_BLOCK_SIZE = {"qepi": 512, "concavity": 512}

# Most trials per block of lemma and conjecture, which run trial by trial.
# A pool block costs about 0.7 ms of CPU to send and return, half a d=2 lemma
# trial, so a block carries many trials.
_TRIAL_BY_TRIAL_BLOCK = 32

# Bytes of the largest stacked array of a theorem block's climb: the basis
# outcome pairs of the joint output, 16 bytes x K searched kappas x
# CLIMB_RESTARTS x (e1 e2)^3 per trial. 6 MiB holds 16 trials at
# e1 = e2 = 4 with the grid's K = 2.
_THEOREM_BLOCK_BYTES = 6 * 2**20

# Blocks submitted to the --parallel pool and not yet handed to the caller,
# per worker.
_WINDOW_PER_WORKER = 2

_HISTOGRAM_EDGES = (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3)

__all__ = [
    "TrialConfig",
    "TrialRecord",
    "Summary",
    "EXPERIMENTS",
    "validate_config",
    "run_lemma_trial",
    "run_theorem_trial",
    "run_qepi_trial",
    "run_concavity_trial",
    "run_conjecture_trial",
    "run_experiment",
    "summarize",
    "run_metadata",
]


@dataclass(frozen=True)
class TrialConfig:
    """Resolved configuration shared by all experiment families."""

    d: int = 2
    d_e1: int = 2
    d_e2: int = 2
    tau: float | None = None  # None: uniform with forced endpoints 0, 1/2, 1
    kappa: object = "grid"  # "grid" | "max" | float
    state_kind: str = "ginibre"
    rank: int | None = None
    trials: int = 1000
    seed: int = 42
    tolerance: float = 1e-9
    exploratory_kappa: bool = False


@dataclass
class TrialRecord:
    """One trial's drawn parameters, slacks, residuals and verdicts."""

    experiment: str
    index: int
    tau: float
    kappas: tuple[float, ...]
    slacks: dict[str, float]
    residuals: dict[str, float]
    pass_flags: dict[str, bool]
    passed: bool = field(init=False)  # all(pass_flags), set on construction
    negligible: int = 0

    def __post_init__(self):
        self.passed = all(self.pass_flags.values())


@dataclass
class Summary:
    """Order-independent aggregation of a record stream."""

    trials: int
    violations: int
    min_slack: dict[str, float]
    max_residual: float
    histogram: dict
    metadata: dict = field(default_factory=dict)


def validate_config(cfg: TrialConfig, experiment: str) -> None:
    """Reject configurations outside the desk-scale envelope this tool supports."""
    if experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}")
    if not 2 <= cfg.d <= MAX_DIM:
        raise UsageError(f"--dim must be in [2, {MAX_DIM}] (dimension cap), got {cfg.d}")
    for label, de in (("--env-dim1", cfg.d_e1), ("--env-dim2", cfg.d_e2)):
        if not 1 <= de <= MAX_ENV_DIM:
            raise UsageError(f"{label} must be in [1, {MAX_ENV_DIM}] (environment cap), got {de}")
    total = cfg.d * cfg.d * cfg.d_e1 * (1 if experiment == "conjecture" else cfg.d_e2)
    if total > MAX_TOTAL_DIM:
        raise UsageError(f"total dimension {total} exceeds cap {MAX_TOTAL_DIM}")
    if cfg.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {cfg.trials}")
    if not 0 <= cfg.seed < 2**64:
        # Streams are keyed by the seed mod 2^64; a wider seed would replay another's trials.
        raise UsageError(f"--seed must be in [0, 2^64), got {cfg.seed}")
    if not (cfg.tolerance > 0 and math.isfinite(cfg.tolerance)):
        raise UsageError(f"--tol must be finite and > 0, got {cfg.tolerance}")
    if cfg.tau is not None and not 0.0 <= cfg.tau <= 1.0:
        raise UsageError(f"--tau must be in [0, 1], got {cfg.tau}")
    try:
        kind = normalize_state_kind(cfg.state_kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if kind == "rank" and (cfg.rank is None or not 1 <= cfg.rank):
        raise UsageError(f"state kind rank-k needs 1 <= K, got {cfg.rank}")
    if kind == "rank" and experiment != "concavity":
        # Smallest state sampled: qepi draws d x d states, the others draw
        # (X, E1) and (X, E2) states (conjecture with d_e1 == 1 draws d x d).
        smallest = cfg.d if experiment == "qepi" else cfg.d * min(cfg.d_e1, cfg.d_e2)
        if cfg.rank > smallest:
            raise UsageError(
                f"state kind rank-k:{cfg.rank} exceeds the smallest sampled state dimension "
                f"{smallest} of {experiment}"
            )
    if isinstance(cfg.kappa, (int, float)):
        if not (math.isfinite(cfg.kappa) and cfg.kappa >= 0):
            raise UsageError(f"--kappa must be finite and >= 0, got {cfg.kappa}")
        if cfg.kappa * math.log(cfg.d) >= math.log(sys.float_info.max):
            raise UsageError(
                f"--kappa {cfg.kappa} overflows: the largest entropy power d^kappa = "
                f"{cfg.d}^{cfg.kappa} is not a finite float"
            )
        if not resolve_kappas(cfg)[0][1] and not cfg.exploratory_kappa:
            kappa1 = kappa_bounds(cfg.d)[0]
            raise UsageError(
                f"--kappa {cfg.kappa} exceeds the validity window 1/(ln d)^2 = {kappa1:.6g}; "
                "pass --exploratory-kappa to scan it as a diagnostic"
            )
    elif cfg.kappa not in ("grid", "max"):
        raise UsageError(f"--kappa must be 'grid', 'max' or a number, got {cfg.kappa!r}")


def resolve_kappas(cfg: TrialConfig) -> tuple[tuple[float, bool], ...]:
    """The kappa grid as (value, hard) pairs; soft entries are diagnostics."""
    kappa1 = kappa_bounds(cfg.d)[0]
    if cfg.kappa == "grid":
        return ((0.0, True), (kappa1 / 2, True), (kappa1, True))
    if cfg.kappa == "max":
        return ((kappa1, True),)
    value = float(cfg.kappa)
    return ((value, value <= kappa1 * (1 + 1e-12)),)


def _kappa_grid(cfg: TrialConfig, prefix: str):
    """(kappa values, their slack keys `<prefix>.k<t>`, the soft keys: those
    of the kappas outside the validity window) of one experiment."""
    kappas = resolve_kappas(cfg)
    keys = [f"{prefix}.k{t}" for t in range(len(kappas))]
    return tuple(k for k, _ in kappas), keys, {key for key, (_, hard) in zip(keys, kappas) if not hard}


def _verdict(cfg: TrialConfig, slacks: dict, residuals: dict, soft=frozenset()) -> dict[str, bool]:
    """The pass flags of a trial: each slack not in `soft` must be >= -tol and
    each residual <= tol, with tol = --tol. Soft slacks are diagnostics."""
    tol = cfg.tolerance
    low = -tol
    flags = {key: value >= low for key, value in slacks.items() if key not in soft}
    for key, value in residuals.items():
        flags[key] = value <= tol
    return flags


def _trial_source(cfg: TrialConfig, experiment: str, index: int) -> RandomSource:
    return RandomSource(cfg.seed, _STREAM_BASE[experiment] + index)


def _draw_tau(cfg: TrialConfig, index: int, gen: np.random.Generator) -> float:
    if cfg.tau is not None:
        return cfg.tau
    if index < len(_FORCED_TAUS):
        return _FORCED_TAUS[index]
    return float(gen.random())


def _trial_streams(cfg: TrialConfig, experiment: str, indices: range):
    """Per trial of `indices`, its tau and one generator re-keyed to the
    trial's stream, drawn past tau. The generator is shared: finish a
    trial's draws before taking the next."""
    streams = KeyedStreams(cfg.seed)
    base = _STREAM_BASE[experiment]
    for index in indices:
        gen = streams.at(base + index)
        yield _draw_tau(cfg, index, gen), gen


def _block_normals(cfg: TrialConfig, experiment: str, indices: range, size: int):
    """Per trial of `indices`, tau and then `size` standard normals drawn in
    one call. Returns the taus and the (N, size) normals."""
    taus = []
    normals = np.empty((len(indices), size))
    for row, (tau, gen) in enumerate(_trial_streams(cfg, experiment, indices)):
        taus.append(tau)
        gen.standard_normal(out=normals[row])
    return taus, normals


def _bilocal_setting(cfg: TrialConfig, gen: np.random.Generator, index: int):
    """Draw order: tau, state1, state2, basis1, basis2."""
    tau = _draw_tau(cfg, index, gen)
    s1 = multipartite(sample_state(gen, cfg.d * cfg.d_e1, cfg.state_kind, cfg.rank), (cfg.d, cfg.d_e1))
    s2 = multipartite(sample_state(gen, cfg.d * cfg.d_e2, cfg.state_kind, cfg.rank), (cfg.d, cfg.d_e2))
    m1 = projective_from_unitary(haar_unitary(cfg.d_e1, gen))
    m2 = projective_from_unitary(haar_unitary(cfg.d_e2, gen))
    return tau, s1, s2, m1, m2


def _bilocal_channel(s1, s2, tau: float):
    """:func:`partial_swap_global` of one (X, E1), (X, E2) setting, as the
    (Y, E1, E2) state."""
    (d, e1), (_, e2) = s1.dims, s2.dims
    out, eigs = partial_swap_global(s1.state.mat[None], s2.state.mat[None], np.array([tau]), d)
    return multipartite(DensityMatrix(out[0], eigs[0]), (d, e1, e2))


def _conditioned_pieces(joint, s1, s2, m1, m2):
    """Validated conditioning of the inputs and the joint output (Y, E1, E2)."""
    out1 = condition_all(s1, m1)
    out2 = condition_all(s2, m2)
    grid = condition_bilocal(joint, m1, m2)
    prob_norm = abs(sum(o.probability for row in grid for o in row) - 1.0)
    return out1, out2, grid, prob_norm


def run_lemma_trial(cfg: TrialConfig, index: int) -> TrialRecord:
    """Check the conditional identity and majorization on one random setting.

    For every outcome pair above the probability floor: the conditioned
    channel output must equal the addition rule applied to the conditioned
    inputs (identity residual), and its spectrum must be majorized by the
    tau-mixture of the conditioned input spectra (prefix slacks).
    """
    gen = _trial_source(cfg, "lemma", index).generator()
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
            factor_resid = max(
                factor_resid, abs(o.probability - out1[j].probability * out2[k].probability)
            )
            if o.negligible or out1[j].negligible or out2[k].negligible:
                negligible += 1
                continue
            target = partial_swap_closed(out1[j].state, out2[k].state, tau)
            identity_resid = max(identity_resid, matrix_distance(o.state.mat, target.mat))
            mix = tau * spectra1[j] + (1.0 - tau) * spectra2[k]
            slack, total = prefix_slack(mix, conditional_spectrum(o))
            min_slack = min(min_slack, slack)
            total_resid = max(total_resid, abs(total))

    slacks = {"lemma_majorization": min_slack}
    residuals = {
        "lemma_identity": identity_resid,
        "major_total": total_resid,
        "factorization": factor_resid,
        "prob_norm": prob_norm,
    }
    return TrialRecord(
        experiment="lemma",
        index=index,
        tau=tau,
        kappas=(),
        slacks=slacks,
        residuals=residuals,
        pass_flags=_verdict(cfg, slacks, residuals),
        negligible=negligible,
    )


def _theorem_slack(tau: float, kappa: float, out1, out2, grid) -> float:
    """The per-measurement slack from validated outcomes: the q1 x q2-weighted
    entropy power of the conditioned outputs minus the tau-mixture of the
    conditioned-input expectations."""
    lhs = sum(
        out1[j].probability * out2[k].probability * entropy_power(o.state, kappa)
        for j, row in enumerate(grid)
        for k, o in enumerate(row)
        if not (o.negligible or out1[j].negligible or out2[k].negligible)
    )
    rhs1 = expected_entropy_power(out1, kappa)
    rhs2 = expected_entropy_power(out2, kappa)
    return lhs - tau * rhs1 - (1.0 - tau) * rhs2


def _kron_pairs(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """np.kron of each matrix pair of two stacks with equal leading axes."""
    e1, e2 = u1.shape[-1], u2.shape[-1]
    return (u1[..., :, None, :, None] * u2[..., None, :, None, :]).reshape(*u1.shape[:-2], e1 * e2, e1 * e2)


def _slack_objective(dims, rho1, rho2, joint, taus, kappas):
    """:func:`_theorem_slack` of B settings at K kappas as a function of the
    stacked factors (U1, U2), computed by :func:`projective_entropy_power`:
    the objective the search climbs.

    dims is (d, e1, e2); rho1, rho2 and joint are the (B, D, D) matrix stacks
    of the inputs on (X, E1) and (X, E2) and of the output on (Y, E1, E2);
    taus has shape (B,) and kappas (K,). The objective maps factor stacks of
    shape (B, K, R, e_j, e_j), R pairs per setting and kappa, to the (B, K, R)
    slacks; each setting's states are broadcast over its climbs, not copied.
    Every value equals, bit for bit, what the setting, kappa and pair give
    alone: each probability-weighted sum is one vector dot product per climb,
    summed in the order `q @ p` sums a single pair's.
    """
    d, e1, e2 = dims
    b = len(taus)
    rho4s = (
        rho1.reshape(b, 1, 1, d, e1, d, e1),
        rho2.reshape(b, 1, 1, d, e2, d, e2),
        joint.reshape(b, 1, 1, d, e1 * e2, d, e1 * e2),
    )
    tau = np.asarray(taus, dtype=np.float64)[:, None, None]
    kappa = np.asarray(kappas, dtype=np.float64)[:, None]

    def dot(x, y):
        return (x[..., None, :] @ y[..., :, None])[..., 0, 0]

    def slack(factors) -> np.ndarray:
        u1, u2 = factors
        (q1, p1), (q2, p2), (_, p_out) = projective_entropy_power(rho4s, (u1, u2, _kron_pairs(u1, u2)), kappa)
        q12 = (q1[..., :, None] * q2[..., None, :]).reshape(p_out.shape)
        return dot(q12, p_out) - tau * dot(q1, p1) - (1.0 - tau) * dot(q2, p2)

    return slack


def _theorem_settings(cfg: TrialConfig, indices: range):
    """:func:`_bilocal_setting` of theorem trials `indices`, stacked: the
    taus, the validated (N, D, D) input state stacks and the (N, e_j, e_j)
    Haar basis stacks, each row bit for bit the trial's own draw. A trial
    whose Haar draw fails a check redraws its bases by _bilocal_setting."""
    envs = (cfg.d_e1, cfg.d_e2)
    # Each matrix draws its real, then its imaginary parts.
    shapes = [(cfg.d * e, state_columns(cfg.d * e, cfg.state_kind, cfg.rank)) for e in envs]
    shapes += [(e, e) for e in envs]
    ends = np.cumsum([0] + [2 * rows * cols for rows, cols in shapes]).tolist()
    taus, normals = _block_normals(cfg, "theorem", indices, ends[-1])
    parts = [normals[:, lo:hi].reshape(-1, 2, *shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]
    g1, g2, h1, h2 = (x[:, 0] + 1j * x[:, 1] for x in parts)
    (rho1, _), (rho2, _) = states_from_gaussians(g1, cfg.state_kind), states_from_gaussians(g2, cfg.state_kind)
    (u1, ok1), (u2, ok2) = haar_unitaries(h1), haar_unitaries(h2)
    for row in np.flatnonzero(~(ok1 & ok2)):
        index = indices[row]
        *_, m1, m2 = _bilocal_setting(cfg, _trial_source(cfg, "theorem", index).generator(), index)
        u1[row], u2[row] = m1.basis, m2.basis
    return taus, rho1, rho2, u1, u2


def _measured_slack(tau: float, kappa: float, pieces) -> float:
    """:func:`_theorem_slack`, term for term in its order, from the outcome
    probabilities, negligible flags and entropies of input 1, input 2 and
    the output grid (row-major)."""
    (q1, neg1, s1), (q2, neg2, s2), (_, neg, s) = pieces
    e2 = len(q2)
    lhs = sum(
        q1[j] * q2[k] * math.exp(kappa * s[j * e2 + k])
        for j in range(len(q1))
        for k in range(e2)
        if not (neg[j * e2 + k] or neg1[j] or neg2[k])
    )
    rhs = []
    for probs, flags, entropies in ((q1, neg1, s1), (q2, neg2, s2)):
        total = 0.0
        for p, flag, entropy in zip(probs, flags, entropies):
            if not flag:
                total += p * math.exp(kappa * entropy)
        rhs.append(total)
    return lhs - tau * rhs[0] - (1.0 - tau) * rhs[1]


def _theorem_block(cfg: TrialConfig, indices: range) -> list[TrialRecord]:
    """Per-measurement conditional entropy power inequality on the settings
    of trials `indices`.

    Hard check per kappa: the q1xq2-weighted entropy power of the conditioned
    outputs beats the tau-mixture of the conditioned-input expectations, for
    every pair of local measurements. For kappa > 0 a hill climb over product
    bases U1 (x) U2 searches for the pair that minimizes the slack, starting
    from the drawn Haar pair; the slack recorded is recomputed by validated
    conditioning at the pair found, so it is never above the Haar pair's.
    At kappa = 0 every entropy power is 1 and the slack is 0 up to round-off
    at any pair; the Haar pair's is recorded.

    Per trial, draw order tau, state 1, state 2, basis 1, basis 2; restart r
    of kappa t's search draws from the trial's source.derive(t, r). Every
    step is stacked: the setting draws, one :func:`partial_swap_global` call,
    one lockstep climb of every search, and one :func:`condition_all_stack`
    call per state over every trial's Haar and found pairs, with the
    one-trial route's checks.
    """
    kappas, keys, soft = _kappa_grid(cfg, "theorem_measured")
    searched = [t for t, kappa in enumerate(kappas) if kappa > 0.0]
    d, e1, e2 = dims = (cfg.d, cfg.d_e1, cfg.d_e2)
    taus, rho1, rho2, haar1, haar2 = _theorem_settings(cfg, indices)
    joint, _ = partial_swap_global(rho1, rho2, np.array(taus), d)

    # Pair 0 of a trial is its Haar pair, pair 1 + c the one its search for
    # kappa searched[c] finds.
    u1, u2 = haar1[:, None], haar2[:, None]
    if searched:
        objective = _slack_objective(dims, rho1, rho2, joint, taus, [kappas[t] for t in searched])
        # Every search of a trial starts at its Haar pair.
        starts = [u.repeat(len(searched), axis=1) for u in (u1, u2)]
        sources = [_trial_source(cfg, "theorem", index).derive(t) for index in indices for t in searched]
        _, (found1, found2) = climb_product_basis(objective, starts, sources)
        u1, u2 = np.concatenate([u1, found1], axis=1), np.concatenate([u2, found2], axis=1)
    check_complete(u1)
    check_complete(u2)
    b = len(taus)
    measured = [
        condition_all_stack(rho4, u)
        for rho4, u in (
            (rho1.reshape(b, 1, d, e1, d, e1), u1),
            (rho2.reshape(b, 1, d, e2, d, e2), u2),
            (joint.reshape(b, 1, d, e1 * e2, d, e1 * e2), _kron_pairs(u1, u2)),
        )
    ]
    spectra = [lam for _, _, lam in measured]
    kept = np.split(entropy_nats_rows(np.concatenate(spectra)), np.cumsum([len(lam) for lam in spectra[:-1]]))
    pieces = []
    for (probs, negligible, _), kept_entropies in zip(measured, kept):
        entropies = np.zeros(probs.shape)
        entropies[~negligible] = kept_entropies
        pieces.append((probs.tolist(), negligible.tolist(), entropies.tolist()))

    records = []
    for i, (index, tau) in enumerate(zip(indices, taus)):
        # trial[state][pair]: one measurement's (probabilities, negligible flags, entropies).
        trial = [list(zip(probs[i], negligible[i], entropies[i])) for probs, negligible, entropies in pieces]
        grids = [q for q, _, _ in trial[2]]
        prob_norm = abs(sum(grids[0]) - 1.0)
        slacks: dict[str, float] = {}
        for t, (key, kappa) in enumerate(zip(keys, kappas)):
            pair = 1 + searched.index(t) if kappa > 0.0 else 0
            if pair:
                prob_norm = max(prob_norm, abs(sum(grids[pair]) - 1.0))
            slacks[key] = _measured_slack(tau, kappa, [state[pair] for state in trial])

        residuals = {"prob_norm": prob_norm}
        records.append(
            TrialRecord(
                experiment="theorem",
                index=index,
                tau=tau,
                kappas=kappas,
                slacks=slacks,
                residuals=residuals,
                pass_flags=_verdict(cfg, slacks, residuals, soft),
                negligible=sum(trial[2][0][1]),
            )
        )
    return records


def run_theorem_trial(cfg: TrialConfig, index: int) -> TrialRecord:
    """Per-measurement conditional entropy power inequality on one setting
    (see :func:`_theorem_block`)."""
    return _theorem_block(cfg, range(index, index + 1))[0]


def run_qepi_trial(cfg: TrialConfig, index: int) -> TrialRecord:
    """Unconditional entropy power inequality and spectral majorization."""
    return _qepi_block(cfg, range(index, index + 1))[0]


def run_concavity_trial(cfg: TrialConfig, index: int) -> TrialRecord:
    """Midpoint concavity of the entropy power on a random simplex pair."""
    return _concavity_block(cfg, range(index, index + 1))[0]


def _qepi_block(cfg: TrialConfig, indices: range) -> list[TrialRecord]:
    """qepi trials `indices`: per trial, draw order tau, state 1, state 2."""
    d = cfg.d
    cols = state_columns(d, cfg.state_kind, cfg.rank)
    taus, normals = _block_normals(cfg, "qepi", indices, 4 * d * cols)
    # Per trial: real and imaginary parts of state 1's Gaussians, then state 2's.
    normals = normals.reshape(-1, 4, d, cols)
    g = normals[:, 0::2] + 1j * normals[:, 1::2]
    rho1, eigs1 = states_from_gaussians(g[:, 0], cfg.state_kind)
    rho2, eigs2 = states_from_gaussians(g[:, 1], cfg.state_kind)
    tau_stack = np.array(taus, dtype=np.float64)
    _, eigs_out = partial_swap_closed_stack(rho1, rho2, tau_stack)

    lam1, lam2, lam_out = (eigenvalues_descending_stack(e) for e in (eigs1, eigs2, eigs_out))
    t = tau_stack[:, None]
    maj_slacks, totals = prefix_slack_rows(t * lam1 + (1.0 - t) * lam2, lam_out)
    entropies = zip(*(entropy_nats_rows(lam).tolist() for lam in (lam1, lam2, lam_out)))

    kappas, keys, soft = _kappa_grid(cfg, "qepi")
    records = []
    for index, tau, slack, total, (s1, s2, s_out) in zip(
        indices, taus, maj_slacks.tolist(), totals.tolist(), entropies
    ):
        slacks = {"qepi_majorization": slack}
        for key, kappa in zip(keys, kappas):
            slacks[key] = (
                math.exp(kappa * s_out) - tau * math.exp(kappa * s1) - (1.0 - tau) * math.exp(kappa * s2)
            )
        residuals = {"major_total": abs(total)}
        records.append(
            TrialRecord(
                experiment="qepi",
                index=index,
                tau=tau,
                kappas=kappas,
                slacks=slacks,
                residuals=residuals,
                pass_flags=_verdict(cfg, slacks, residuals, soft),
            )
        )
    return records


def _concavity_block(cfg: TrialConfig, indices: range) -> list[TrialRecord]:
    """Concavity trials `indices`: per trial, draw order tau, p, q."""
    alpha = np.ones(cfg.d)
    taus = []
    pq = np.empty((len(indices), 2, cfg.d))
    for row, (tau, gen) in enumerate(_trial_streams(cfg, "concavity", indices)):
        taus.append(tau)  # recorded only; concavity has no mixing step
        pq[row, 0] = gen.dirichlet(alpha)
        pq[row, 1] = gen.dirichlet(alpha)
    p, q = pq[:, 0], pq[:, 1]
    entropies = zip(*(entropy_nats_rows(v).tolist() for v in (p, q, (p + q) / 2)))

    kappas, keys, soft = _kappa_grid(cfg, "concavity")
    records = []
    for index, tau, (hp, hq, hm) in zip(indices, taus, entropies):
        slacks = {
            key: math.exp(kappa * hm) - (math.exp(kappa * hp) + math.exp(kappa * hq)) / 2
            for key, kappa in zip(keys, kappas)
        }
        records.append(
            TrialRecord(
                experiment="concavity",
                index=index,
                tau=tau,
                kappas=kappas,
                slacks=slacks,
                residuals={},
                pass_flags=_verdict(cfg, slacks, {}, soft),
            )
        )
    return records


def _conjecture_slack(joint, tau: float) -> float:
    """Entropy-conditional slack for a (X1, X2, E) state under the swap channel.

    The channel is the swap unitary on (X1, X2) tensored with the identity on
    E, followed by tracing out X2.
    """
    s_out = conditional_vn_entropy(partial_swap_joint(joint, tau))
    s_1 = conditional_vn_entropy(partial_trace(joint, (0, 2)))
    s_2 = conditional_vn_entropy(partial_trace(joint, (1, 2)))
    return s_out - tau * s_1 - (1.0 - tau) * s_2


def run_conjecture_trial(cfg: TrialConfig, index: int) -> TrialRecord:
    """One counterexample-search trial for the conditional-entropy inequality.

    Main arm: a joint (X1, X2, E) state with E of dim --env-dim1, possibly
    entangled with everything. A slack below -10*tol is only a finding after
    it survives a 1e-8 state perturbation (recomputing it from re-symmetrized
    input would change nothing: every validated state is exactly Hermitian,
    so make_density returns it bit for bit). Findings are expected here: the
    swap unitary can lower the entropy of correlated inputs (it can outright
    disentangle them), so the any-state form of the inequality fails without
    conditional independence. With a trivial environment the marginals must
    be independent for the inequality to reduce to the proven unconditional
    entropic one, so there the two system legs are drawn as a product and the
    slack is asserted.
    The control arm draws product-shaped (X1,E1) x (X2,E2) inputs and reports
    (never asserts) the two-environment entropy version.
    """
    gen = _trial_source(cfg, "conjecture", index).generator()
    tau = _draw_tau(cfg, index, gen)
    d, de = cfg.d, cfg.d_e1

    if de == 1:
        rho1 = sample_state(gen, d, cfg.state_kind, cfg.rank)
        rho2 = sample_state(gen, d, cfg.state_kind, cfg.rank)
        joint = multipartite(make_density(np.kron(rho1.mat, rho2.mat)), (d, d, 1))
    else:
        joint = multipartite(sample_state(gen, d * d * de, cfg.state_kind, cfg.rank), (d, d, de))
    slack = _conjecture_slack(joint, tau)

    slacks = {"conjecture": slack}
    threshold = -10.0 * cfg.tolerance
    reverified = False
    if slack < threshold:
        bump = sample_state(gen, d * d * de, "ginibre")
        eps = 1e-8
        perturbed = multipartite(
            make_density((1.0 - eps) * joint.state.mat + eps * bump.mat), joint.dims
        )
        slacks["conjecture_perturbed"] = _conjecture_slack(perturbed, tau)
        reverified = slacks["conjecture_perturbed"] < threshold

    # Control arm: product-shaped inputs, conditioning on both environments.
    s1 = multipartite(sample_state(gen, d * cfg.d_e1, cfg.state_kind, cfg.rank), (d, cfg.d_e1))
    s2 = multipartite(sample_state(gen, d * cfg.d_e2, cfg.state_kind, cfg.rank), (d, cfg.d_e2))
    mixed = _bilocal_channel(s1, s2, tau)
    slacks["conjecture_control"] = (
        conditional_vn_entropy(as_bipartite(mixed, 1))
        - tau * conditional_vn_entropy(s1)
        - (1.0 - tau) * conditional_vn_entropy(s2)
    )

    # Only the trivial-environment slack is asserted; the rest are diagnostics.
    soft = set(slacks) - ({"conjecture"} if de == 1 else set())
    return TrialRecord(
        experiment="conjecture",
        index=index,
        tau=tau,
        kappas=(),
        slacks=slacks,
        residuals={},
        pass_flags={"reverified_candidate": not reverified, **_verdict(cfg, slacks, {}, soft)},
    )


def _trial_by_trial(trial_fn):
    def block(cfg: TrialConfig, indices: range) -> list[TrialRecord]:
        return [trial_fn(cfg, index) for index in indices]

    return block


# Block functions: (cfg, indices) -> the records of those trials, in order.
_TRIAL_FNS = {
    "lemma": _trial_by_trial(run_lemma_trial),
    "theorem": _theorem_block,
    "qepi": _qepi_block,
    "concavity": _concavity_block,
    "conjecture": _trial_by_trial(run_conjecture_trial),
}


def _run_block(experiment: str, cfg: TrialConfig, indices: range) -> list[TrialRecord]:
    block = _TRIAL_FNS[experiment]
    try:
        return block(cfg, indices)
    except QuditEpiError:
        # Rerun trial by trial: the first failing trial raises, named.
        for index in indices:
            try:
                block(cfg, range(index, index + 1))
            except QuditEpiError as exc:
                key = (cfg.seed, _STREAM_BASE[experiment] + index)
                raise type(exc)(f"{experiment} trial {index}, stream key {key}: {exc}") from exc
        raise


def _block_size(experiment: str, cfg: TrialConfig, workers: int) -> int:
    """Trials per block: _BLOCK_SIZE for qepi and concavity. The others get
    the trials divided evenly over the workers, so each gets a block, but no
    more than _TRIAL_BY_TRIAL_BLOCK, or for theorem than _THEOREM_BLOCK_BYTES
    holds."""
    if experiment in _BLOCK_SIZE:
        return _BLOCK_SIZE[experiment]
    cap = _TRIAL_BY_TRIAL_BLOCK
    if experiment == "theorem":
        searched = sum(1 for kappa, _ in resolve_kappas(cfg) if kappa > 0.0)
        per_trial = 16 * max(searched, 1) * CLIMB_RESTARTS * (cfg.d_e1 * cfg.d_e2) ** 3
        cap = max(1, _THEOREM_BLOCK_BYTES // per_trial)
    return min(cap, math.ceil(cfg.trials / workers))


def _run_blocks(experiment: str, cfg: TrialConfig, parallel: int) -> Iterator[list[TrialRecord]]:
    """The records of all trials of one experiment, one block's list at a
    time, in index order. The configuration is checked before the first block
    runs; a serial block runs only when the caller asks for it, so the caller
    holds only the blocks it keeps."""
    validate_config(cfg, experiment)
    workers = int(parallel)
    if workers < 1:
        raise UsageError(f"--parallel must be >= 1, got {parallel}")
    if cfg.trials < 2 * workers:
        workers = 1
    run = partial(_run_block, experiment, cfg)
    size = _block_size(experiment, cfg, workers)
    blocks = [range(start, min(start + size, cfg.trials)) for start in range(0, cfg.trials, size)]
    if workers == 1:
        yield from map(run, blocks)
        return
    from concurrent.futures import ProcessPoolExecutor

    # Not Executor.map: it submits every block at once, so finished results
    # pile up until the caller asks for them. The window keeps the workers
    # busy while this process holds only that many blocks.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        try:
            for indices in blocks:
                pending.append(pool.submit(run, indices))
                if len(pending) == _WINDOW_PER_WORKER * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            # On an error or an abandoned generator the blocks not yet
            # started are dropped; leaving the block joins the workers.
            pool.shutdown(cancel_futures=True)


def run_experiment(experiment: str, cfg: TrialConfig, parallel: int = 1):
    """Run all trials of one experiment; returns (records, summary).

    Records are identical whatever `parallel` is: each trial's randomness is a
    pure function of (seed, experiment, index), and records are emitted in
    index order.
    """
    records = [record for block in _run_blocks(experiment, cfg, parallel) for record in block]
    return records, summarize(records, run_metadata(cfg))


def run_metadata(cfg: TrialConfig) -> dict:
    return {
        "samplers": normalize_state_kind(cfg.state_kind),
        "measurement_family": "haar-projective-rank1",
        "rng": RNG_ALGORITHM,
        "log_base": "natural",
        "version": __version__,
    }


def summarize(records: Iterable[TrialRecord], metadata: dict | None = None) -> Summary:
    """Fold records in one pass; the result does not depend on their order.

    A NaN slack or residual is sticky: it becomes its key's min_slack or the
    max_residual, whatever records come before or after it, and a record with
    a NaN slack lands in the last histogram bin, whatever its other slacks.
    """
    trials = violations = 0
    min_slack: dict[str, float] = {}
    max_residual = 0.0
    counts = [0] * (len(_HISTOGRAM_EDGES) + 1)
    for r in records:
        trials += 1
        violations += not r.passed
        worst = math.inf
        for key, value in r.slacks.items():
            low = min_slack.get(key)
            if low is None or value < low or value != value:
                min_slack[key] = value
            if value < worst or value != value:
                worst = value
        for value in r.residuals.values():
            if value > max_residual or value != value:
                max_residual = value
        if r.slacks:
            counts[bisect.bisect_right(_HISTOGRAM_EDGES, worst)] += 1
    if not trials:
        raise QuditEpiError("no records to summarize")
    return Summary(
        trials=trials,
        violations=violations,
        min_slack={k: min_slack[k] for k in sorted(min_slack)},
        max_residual=max_residual,
        histogram={"edges": list(_HISTOGRAM_EDGES), "counts": counts},
        metadata=dict(metadata or {}),
    )
