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

Every experiment is a block function `(cfg, indices) -> TrialBlock`
(:data:`_TRIAL_FNS`), and a block travels as columns (:class:`TrialBlock`)
from its block function to the rendered lines and the summary: no per-trial
object is built on the way. A block function takes each trial's tau and its
stream from one generator that :func:`_trial_streams` re-keys per trial, and
draws that trial's values in the order of the one-trial code. Each experiment
takes its kappas and their slack keys from :func:`_kappa_grid`.
qepi and concavity compute a block as stacked (N, d, d) arrays: they
validate, mix and take spectra and entropies of the whole block at once, and
fill each column from those stacks.
theorem and lemma share the stacked setting draw (:func:`_theorem_settings`),
the global channel (one :func:`partial_swap_global` call) and the validated
conditioning of the two inputs and the output (:func:`_condition_bilocal`),
which hands back states, spectra and skipped outcome pairs on the outcome
grid. The theorem climbs every search of the block in lockstep
(:func:`climb_product_basis`) over all their kappas and restarts and
conditions at the pairs found; the lemma checks every kept outcome pair of
the block in one :func:`partial_swap_closed_stack` call.
Either way every value equals what the trial alone computes, bit for bit, so
no line depends on the block size or --parallel. conjecture stacks its two
arms on the same parts: the drawn states (:func:`states_from_gaussians`), one
:func:`partial_swap_joint_stack` call on the joint states, one
:func:`partial_swap_global` call on the control arm's, and stacked
conditional entropies of validated states. Every trial draws one fixed-length
row, so a re-checked candidate's perturbation moves no other draw.

The slack and residual columns are computed on a block's validated stacks
and the spectra they come with, under two rules that keep each value bit for
bit the one-trial route's: each entropy power e^(kappa S) is math.exp of
kappa S (:func:`_entropy_powers`), and each sum over outcomes or over a
spectrum adds its terms left to right (:func:`ordered_sum`), so no value
depends on numpy's exp, its pairwise sums or the Python version's builtin
sum. A :class:`TrialBlock` is a NamedTuple of its columns; its `passed`
property is derived from `pass_flags`.

:func:`_block_size` sizes the blocks: 512 trials of qepi or concavity; for
the others the trials divided evenly over the workers, at most as many as
:data:`_BLOCK_BYTES` holds of the block's largest stacked array, and at most
:data:`_MAX_BLOCK` of lemma or conjecture. A block that raises is
rerun trial by trial, so the error names the first failing trial.
:func:`run_experiment` hands the caller one block at a time, in index order,
whether the block ran in this process or in the pool; a serial block runs
only when the caller asks for it, so a caller that drops each block before
asking for the next holds one block, and :func:`summarize` folds the blocks
column by column in one pass. The pool has no more workers than the CPUs
this process may use or the blocks, and runs at most
:data:`_WINDOW_PER_WORKER` blocks per worker ahead of the caller.

A block function only computes slacks (must be >= minus the tolerance) and
residuals (must be <= the tolerance); one verdict rule, :func:`_verdict`,
turns their columns into pass flag columns, skipping the slacks a trial names
as diagnostics.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from functools import partial
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .channels import partial_swap_closed_stack, partial_swap_global, partial_swap_joint_stack
from .entropy import (
    CLIMB_RESTARTS,
    climb_product_basis,
    entropy_nats_rows,
    kappa_bounds,
    prefix_slack_rows,
    projective_entropy_power,
)
from .errors import QuditEpiError, UsageError
from .measurement import check_complete, condition_all_stack, ordered_sum
from .rand import (
    RNG_ALGORITHM,
    KeyedStreams,
    RandomSource,
    derived_indices,
    haar_unitaries,
    haar_unitary,
    normalize_state_kind,
    state_columns,
    states_from_gaussians,
)
from .states import make_density, make_density_stack

MAX_DIM = 6
MAX_ENV_DIM = 4

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

# Most trials per block of lemma and conjecture. A pool block costs about
# 0.7 ms of CPU to send and return, several d=2 lemma or conjecture trials,
# so a block carries many trials.
_MAX_BLOCK = 32

# Bytes of the largest stacked array of a theorem, lemma or conjecture block.
# The theorem's is its climb's basis outcome pairs of the joint output, 16
# bytes x K searched kappas x CLIMB_RESTARTS x (e1 e2)^3 per trial: 6 MiB
# holds 16 trials at e1 = e2 = 4 with the grid's K = 2. The lemma's is the
# (Y, E1, E2) output, 16 bytes x (d e1 e2)^2 per trial: 6 MiB holds 42 trials
# at the largest (6, 4, 4), so the lemma's _MAX_BLOCK binds first. The
# conjecture's is its drawn normals, 8 bytes x the row of _conjecture_layout
# per trial, which holds the 2 (d^2 e1)^2 of the bump: 6 MiB holds 9 ginibre
# trials at d = 6, e1 = 4 (85 248 normals each).
_BLOCK_BYTES = 6 * 2**20

# Blocks submitted to the --parallel pool and not yet handed to the caller,
# per worker.
_WINDOW_PER_WORKER = 2

_HISTOGRAM_EDGES = (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3)

__all__ = [
    "TrialConfig",
    "TrialBlock",
    "Summary",
    "EXPERIMENTS",
    "validate_config",
    "run_experiment",
    "summarize",
    "run_metadata",
    # Validation of one state; perfbench/test_tracer.py checks that its
    # tracer wraps and restores this module's binding of it.
    "make_density",
]


class TrialConfig(NamedTuple):
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


class TrialBlock(NamedTuple):
    """The trials of one block as columns: row i is trial indices[i].

    Each slack, residual and pass flag key maps to a column with one entry
    per row; a row that lacks the key holds None there. Slacks and residuals
    are floats. A negligible count of 0 means the trial skipped no outcome.
    """

    experiment: str
    indices: range
    taus: list[float]
    kappas: tuple[float, ...]
    slacks: dict[str, list]
    residuals: dict[str, list]
    pass_flags: dict[str, list]
    negligible: list[int]

    @property
    def passed(self) -> list[bool]:
        """Per row, whether all of its flags hold."""
        flags = self.pass_flags.values()
        return [False not in row for row in zip(*flags)] if flags else [True] * len(self.taus)


class Summary(NamedTuple):
    """Order-independent aggregation of a run's trials."""

    trials: int
    violations: int
    min_slack: dict[str, float]
    max_residual: float
    histogram: dict
    metadata: dict = {}  # the default is shared: a Summary's dicts are read, never changed


def validate_config(cfg: TrialConfig, experiment: str) -> None:
    """Reject configurations outside the desk-scale envelope this tool supports."""
    if experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}")
    for name in ("d", "d_e1", "d_e2", "trials", "seed"):
        _check_integer(name, getattr(cfg, name))
    if cfg.rank is not None:
        _check_integer("rank", cfg.rank)
    if cfg.tau is not None:
        _check_real("tau", cfg.tau)
    _check_real("tolerance", cfg.tolerance)
    if not (cfg.kappa in ("grid", "max") if isinstance(cfg.kappa, str) else _is_real(cfg.kappa)):
        raise UsageError(f"kappa must be 'grid', 'max' or a real number, got {cfg.kappa!r}")
    if not isinstance(cfg.state_kind, str):
        raise UsageError(f"state_kind must be a string, got {cfg.state_kind!r}")
    if not isinstance(cfg.exploratory_kappa, (bool, np.bool_)):
        raise UsageError(f"exploratory_kappa must be a bool, got {cfg.exploratory_kappa!r}")
    if not 2 <= cfg.d <= MAX_DIM:
        raise UsageError(f"--dim must be in [2, {MAX_DIM}] (dimension cap), got {cfg.d}")
    for label, de in (("--env-dim1", cfg.d_e1), ("--env-dim2", cfg.d_e2)):
        if not 1 <= de <= MAX_ENV_DIM:
            raise UsageError(f"{label} must be in [1, {MAX_ENV_DIM}] (environment cap), got {de}")
    if cfg.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {cfg.trials}")
    if not 0 <= cfg.seed < 2**64:
        # Streams are keyed by the seed mod 2^64; a wider seed would replay another's trials.
        raise UsageError(f"--seed must be in [0, 2^64), got {cfg.seed}")
    if not (cfg.tolerance > 0 and math.isfinite(cfg.tolerance)):
        raise UsageError(f"--tol must be finite and > 0, got {cfg.tolerance}")
    if cfg.tau is not None and not 0.0 <= cfg.tau <= 1.0:
        raise UsageError(f"--tau must be in [0, 1], got {cfg.tau}")
    kind = normalize_state_kind(cfg.state_kind)
    if kind != "rank" and cfg.rank is not None:
        raise UsageError(f"rank must be None for state kind {cfg.state_kind!r}, got {cfg.rank!r}")
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
    if not isinstance(cfg.kappa, str):
        if not (math.isfinite(cfg.kappa) and cfg.kappa >= 0):
            raise UsageError(f"--kappa must be finite and >= 0, got {cfg.kappa}")
        if cfg.kappa * math.log(cfg.d) >= math.log(sys.float_info.max):
            raise UsageError(
                f"--kappa {cfg.kappa} overflows: the largest entropy power d^kappa = "
                f"{cfg.d}^{cfg.kappa} is not a finite float"
            )
        if not resolve_kappas(cfg)[0][1] and not cfg.exploratory_kappa:
            kappa1 = kappa_bounds(cfg.d)
            raise UsageError(
                f"--kappa {cfg.kappa} exceeds the validity window 1/(ln d)^2 = {kappa1:.6g}; "
                "pass --exploratory-kappa to scan it as a diagnostic"
            )


def _check_integer(name: str, value) -> None:
    """Reject a dimension, count or seed that is not an integer: a float
    would fail inside the trials, and a bool would count as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """A real number and no bool: a bool would run as 0 or 1 but be written
    as true or false."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _check_real(name: str, value) -> None:
    """Reject a tau or tolerance that is not a real number, before the range
    checks compare it."""
    if not _is_real(value):
        raise UsageError(f"{name} must be a real number, got {value!r}")


def resolve_kappas(cfg: TrialConfig) -> tuple[tuple[float, bool], ...]:
    """The kappa grid as (value, hard) pairs; soft entries are diagnostics."""
    kappa1 = kappa_bounds(cfg.d)
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


def _verdict(cfg: TrialConfig, slacks: dict, residuals: dict, soft=frozenset()) -> dict[str, list]:
    """The pass flag columns of a block's slack and residual columns: each
    slack not in `soft` must be >= -tol and each residual <= tol, with
    tol = --tol. Soft slacks are diagnostics. A row without a value (None)
    gets no flag (None)."""
    tol = cfg.tolerance
    low = -tol
    flags = {
        key: [None if value is None else value >= low for value in column]
        for key, column in slacks.items()
        if key not in soft
    }
    for key, column in residuals.items():
        flags[key] = [None if value is None else value <= tol for value in column]
    return flags


def _draw_tau(cfg: TrialConfig, index: int, gen: np.random.Generator) -> float:
    if cfg.tau is not None:
        return float(cfg.tau)  # an int tau is written as a float too
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


def _normal_count(shapes) -> int:
    """Standard normals that complex Gaussian matrices of `shapes` draw."""
    return 2 * sum(rows * cols for rows, cols in shapes)


def _complex_gaussians(normals: np.ndarray, shapes) -> list[np.ndarray]:
    """The (N, rows, cols) complex Gaussian stacks of `shapes`, in order,
    from the leading columns of (N, L) normals: each matrix takes its real,
    then its imaginary parts, as rand.complex_gaussian draws them."""
    ends = np.cumsum([0] + [2 * rows * cols for rows, cols in shapes]).tolist()
    parts = [normals[:, lo:hi].reshape(-1, 2, *shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]
    return [x[:, 0] + 1j * x[:, 1] for x in parts]


def _kron_pairs(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """np.kron of each matrix pair of two stacks with equal leading axes."""
    e1, e2 = u1.shape[-1], u2.shape[-1]
    return (u1[..., :, None, :, None] * u2[..., None, :, None, :]).reshape(*u1.shape[:-2], e1 * e2, e1 * e2)


def _slack_objective(dims, rho1, rho2, joint, taus, kappas):
    """The per-measurement slack of B settings at K kappas as a function of
    the stacked factors (U1, U2), computed by :func:`projective_entropy_power`:
    the q1 x q2-weighted entropy power of the conditioned outputs minus the
    tau-mixture of the conditioned-input expectations. It is the objective
    the search climbs.

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


def _entropy_powers(kappa, entropies: np.ndarray) -> np.ndarray:
    """e^(kappa S) of each entry of an array of entropies S, kappa a float or
    an array broadcasting against them. Each power is taken by math.exp,
    whose last bit np.exp does not always match, so every slack column takes
    its powers here."""
    x = kappa * entropies
    return np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _theorem_settings(cfg: TrialConfig, experiment: str, indices: range):
    """The settings of the trials `indices` of `experiment` (theorem or
    lemma), stacked: the taus, the validated (N, D, D) input state stacks and
    the (N, e_j, e_j) Haar basis stacks. Per trial, draw order tau, state 1,
    state 2, basis 1, basis 2, each row bit for bit the trial's own draw. A
    trial whose stacked Haar draw fails a check replays its stream past the
    states and redraws both bases by haar_unitary, retries included."""
    envs = (cfg.d_e1, cfg.d_e2)
    shapes = [(cfg.d * e, state_columns(cfg.d * e, cfg.state_kind, cfg.rank)) for e in envs]
    shapes += [(e, e) for e in envs]
    taus, normals = _block_normals(cfg, experiment, indices, _normal_count(shapes))
    g1, g2, h1, h2 = _complex_gaussians(normals, shapes)
    (rho1, _), (rho2, _) = states_from_gaussians(g1, cfg.state_kind), states_from_gaussians(g2, cfg.state_kind)
    (u1, ok1), (u2, ok2) = haar_unitaries(h1), haar_unitaries(h2)
    for row in np.flatnonzero(~(ok1 & ok2)):
        ((_, gen),) = _trial_streams(cfg, experiment, indices[row : row + 1])
        gen.standard_normal(_normal_count(shapes[:2]))  # the two states' Gaussians
        u1[row], u2[row] = haar_unitary(cfg.d_e1, gen), haar_unitary(cfg.d_e2, gen)
    return taus, rho1, rho2, u1, u2


def _condition_bilocal(d: int, rho1, rho2, joint, u1: np.ndarray, u2: np.ndarray):
    """The :func:`condition_all_stack` results of the (B, D, D) stacks of
    inputs on (X, E1) and (X, E2) and of their output on (Y, E1, E2), at the
    (B, ..., e_j, e_j) bases u1, u2 (each checked by :func:`check_complete`)
    and u1 (x) u2, whose outcome j e2 + k is the pair (j, k); and the
    (B, ..., e1, e2) mask of the pairs skipped, negligible for any of them.
    """
    check_complete(u1)
    check_complete(u2)
    e1, e2 = u1.shape[-1], u2.shape[-1]
    lead = (len(rho1),) + (1,) * (u1.ndim - 3)
    measured = [
        condition_all_stack(rho.reshape(*lead, d, e, d, e), u)
        for rho, e, u in ((rho1, e1, u1), (rho2, e2, u2), (joint, e1 * e2, _kron_pairs(u1, u2)))
    ]
    neg1, neg2, neg = (negligible for _, negligible, *_ in measured)
    skip = neg.reshape(*neg.shape[:-1], e1, e2) | neg1[..., :, None] | neg2[..., None, :]
    return (*measured, skip)


def _theorem_block(cfg: TrialConfig, indices: range) -> TrialBlock:
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
    one lockstep climb of every search, and one :func:`_condition_bilocal`
    call over every trial's Haar and found pairs, with the one-trial route's
    checks. The slacks are array arithmetic on the validated probabilities
    and spectra on the outcome grid, with each entropy power taken by
    :func:`_entropy_powers` and each sum over outcomes by
    :func:`ordered_sum`, in the one-trial route's order; prob_norm is the
    largest residual of the output's outcome totals over the trial's pairs.
    """
    kappas, keys, soft = _kappa_grid(cfg, "theorem_measured")
    searched = [t for t, kappa in enumerate(kappas) if kappa > 0.0]
    d, e1, e2 = dims = (cfg.d, cfg.d_e1, cfg.d_e2)
    taus, rho1, rho2, haar1, haar2 = _theorem_settings(cfg, "theorem", indices)
    joint, _ = partial_swap_global(rho1, rho2, np.array(taus), d)

    # Pair 0 of a trial is its Haar pair, pair 1 + c the one its search for
    # kappa searched[c] finds.
    u1, u2 = haar1[:, None], haar2[:, None]
    if searched:
        objective = _slack_objective(dims, rho1, rho2, joint, taus, [kappas[t] for t in searched])
        # Every search of a trial starts at its Haar pair.
        starts = [u.repeat(len(searched), axis=1) for u in (u1, u2)]
        # Search c of trial i streams from the trial's source.derive(searched[c]).
        trial_streams = np.arange(indices.start, indices.stop, indices.step, dtype=np.uint64) + _STREAM_BASE["theorem"]
        streams = derived_indices(trial_streams[:, None], np.array(searched, dtype=np.uint64))
        sources = [RandomSource(cfg.seed, stream) for stream in streams.ravel().tolist()]
        _, (found1, found2) = climb_product_basis(objective, starts, sources)
        u1, u2 = np.concatenate([u1, found1], axis=1), np.concatenate([u2, found2], axis=1)
    (q1, neg1, _, _, lam1), (q2, neg2, _, _, lam2), (_, neg, prob_norms, _, lam), skip = _condition_bilocal(
        d, rho1, rho2, joint, u1, u2
    )
    # The pair that kappa t's slack reads.
    pairs = [1 + searched.index(t) if kappa > 0.0 else 0 for t, kappa in enumerate(kappas)]
    kappa = np.array(kappas)[:, None]

    def expectation(probs, skip, spectra):
        # The probability-weighted entropy power over the outcomes not
        # skipped, at each kappa's pair.
        powers = _entropy_powers(kappa, entropy_nats_rows(spectra[:, pairs]))
        return ordered_sum(np.where(skip[:, pairs], 0.0, probs[:, pairs] * powers))

    q12 = (q1[..., :, None] * q2[..., None, :]).reshape(neg.shape)
    lhs = expectation(q12, skip.reshape(neg.shape), lam)
    tau = np.array(taus)[:, None]
    values = lhs - tau * expectation(q1, neg1, lam1) - (1.0 - tau) * expectation(q2, neg2, lam2)
    slacks = dict(zip(keys, values.T.tolist()))
    residuals = {"prob_norm": prob_norms.max(axis=1).tolist()}
    skipped = neg[:, 0].sum(axis=1).tolist()  # at the Haar pair
    flags = _verdict(cfg, slacks, residuals, soft)
    return TrialBlock("theorem", indices, taus, kappas, slacks, residuals, flags, skipped)


def _lemma_block(cfg: TrialConfig, indices: range) -> TrialBlock:
    """Conditional identity and majorization on the settings of lemma trials
    `indices`.

    For every outcome pair above the probability floor: the conditioned
    channel output must equal the addition rule applied to the conditioned
    inputs (identity residual), and its spectrum must be majorized by the
    tau-mixture of the conditioned input spectra (prefix slacks).

    Per trial, draw order tau, state 1, state 2, basis 1, basis 2, as the
    theorem's. Every step is stacked: the setting draws, one
    :func:`partial_swap_global` call, one :func:`_condition_bilocal` call at
    the Haar pairs, and one :func:`partial_swap_closed_stack` call over the
    kept outcome pairs of every trial, read off the outcome grids. Each value
    is what the trial computes alone, bit for bit: a trial's maxima and minima
    fold over its outcome pairs in row-major order, and prob_norm is the
    residual of its output's outcome total that :func:`condition_all_stack`
    returns.
    """
    d, e1, e2 = cfg.d, cfg.d_e1, cfg.d_e2
    taus, rho1, rho2, u1, u2 = _theorem_settings(cfg, "lemma", indices)
    tau = np.array(taus)
    joint, _ = partial_swap_global(rho1, rho2, tau, d)
    b = len(taus)
    (q1, _, _, states1, lam1), (q2, _, _, states2, lam2), (q, _, prob_norm, states, lam), skip = _condition_bilocal(
        d, rho1, rho2, joint, u1, u2
    )
    # Trial i's kept outcome pair (j, k) is the output's outcome g = j e2 + k.
    i, j, k = np.nonzero(~skip)
    g = j * e2 + k
    targets, _ = partial_swap_closed_stack(states1[i, j], states2[i, k], tau[i])
    distances = np.abs(states[i, g] - targets).max(axis=(1, 2)).tolist()
    t = tau[i, None]
    pair_slacks, totals = prefix_slack_rows(t * lam1[i, j] + (1.0 - t) * lam2[i, k], lam[i, g])
    pair_slacks, totals = pair_slacks.tolist(), np.abs(totals).tolist()
    factor = np.abs(q.reshape(b, e1, e2) - q1[:, :, None] * q2[:, None, :]).reshape(b, -1).tolist()

    slacks: dict[str, list] = {"lemma_majorization": []}
    residuals: dict[str, list] = {"lemma_identity": [], "major_total": [], "factorization": []}
    negligible = skip.reshape(b, -1).sum(axis=1).tolist()
    ends = np.cumsum([e1 * e2 - n for n in negligible]).tolist()
    for start, end, trial_factor in zip([0, *ends], ends, factor):
        slacks["lemma_majorization"].append(min([math.inf, *pair_slacks[start:end]]))
        residuals["lemma_identity"].append(max([0.0, *distances[start:end]]))
        residuals["major_total"].append(max([0.0, *totals[start:end]]))
        residuals["factorization"].append(max([0.0, *trial_factor]))
    residuals["prob_norm"] = prob_norm.tolist()
    return TrialBlock("lemma", indices, taus, (), slacks, residuals, _verdict(cfg, slacks, residuals), negligible)


def _qepi_block(cfg: TrialConfig, indices: range) -> TrialBlock:
    """qepi trials `indices`: per trial, draw order tau, state 1, state 2."""
    shapes = [(cfg.d, state_columns(cfg.d, cfg.state_kind, cfg.rank))] * 2
    taus, normals = _block_normals(cfg, "qepi", indices, _normal_count(shapes))
    g1, g2 = _complex_gaussians(normals, shapes)
    (rho1, lam1), (rho2, lam2) = states_from_gaussians(g1, cfg.state_kind), states_from_gaussians(g2, cfg.state_kind)
    tau_stack = np.array(taus, dtype=np.float64)
    _, lam_out = partial_swap_closed_stack(rho1, rho2, tau_stack)
    t = tau_stack[:, None]
    maj_slacks, totals = prefix_slack_rows(t * lam1 + (1.0 - t) * lam2, lam_out)
    kappas, keys, soft = _kappa_grid(cfg, "qepi")
    entropies = np.stack([entropy_nats_rows(lam) for lam in (lam1, lam2, lam_out)])
    p1, p2, p_out = _entropy_powers(np.array(kappas)[:, None], entropies[:, None])
    slacks = {"qepi_majorization": maj_slacks.tolist()}
    slacks.update(zip(keys, (p_out - tau_stack * p1 - (1.0 - tau_stack) * p2).tolist()))
    residuals = {"major_total": np.abs(totals).tolist()}
    return TrialBlock(
        "qepi", indices, taus, kappas, slacks, residuals, _verdict(cfg, slacks, residuals, soft), [0] * len(taus)
    )


def _concavity_block(cfg: TrialConfig, indices: range) -> TrialBlock:
    """Concavity trials `indices`: per trial, draw order tau, p, q."""
    alpha = np.ones(cfg.d)
    taus = []
    pq = np.empty((len(indices), 2, cfg.d))
    for row, (tau, gen) in enumerate(_trial_streams(cfg, "concavity", indices)):
        taus.append(tau)  # recorded only; concavity has no mixing step
        pq[row, 0] = gen.dirichlet(alpha)
        pq[row, 1] = gen.dirichlet(alpha)
    p, q = pq[:, 0], pq[:, 1]
    entropies = np.stack([entropy_nats_rows(v) for v in (p, q, (p + q) / 2)])

    kappas, keys, soft = _kappa_grid(cfg, "concavity")
    p_p, p_q, p_mid = _entropy_powers(np.array(kappas)[:, None], entropies[:, None])
    slacks = dict(zip(keys, (p_mid - (p_p + p_q) / 2).tolist()))
    return TrialBlock(
        "concavity", indices, taus, kappas, slacks, {}, _verdict(cfg, slacks, {}, soft), [0] * len(taus)
    )


def _conjecture_layout(cfg: TrialConfig):
    """The draws of one conjecture trial after its tau: the (rows, cols)
    Gaussian shapes of the main arm (the joint (X1, X2, E) state, or with a
    trivial E its two legs) and of the control arm (states 1 and 2), and the
    normal counts of the main arm, the ginibre bump on the joint state that a
    re-checked candidate draws next, and the control arm."""
    d, de = cfg.d, cfg.d_e1
    main = [(n, state_columns(n, cfg.state_kind, cfg.rank)) for n in ((d, d) if de == 1 else (d * d * de,))]
    control = [(d * e, state_columns(d * e, cfg.state_kind, cfg.rank)) for e in (cfg.d_e1, cfg.d_e2)]
    return main, control, (_normal_count(main), 2 * (d * d * de) ** 2, _normal_count(control))


def _conditional_entropies(states: np.ndarray, spectra: np.ndarray, d: int) -> np.ndarray:
    """S(XE) - S(E) in nats of each (X, E) state of a validated
    (..., d*e, d*e) stack with descending spectra `spectra`, X of dim d. Each
    E marginal is validated, as make_density validates it."""
    e = states.shape[-1] // d
    _, env_spectra = make_density_stack(np.einsum("naeaf->nef", states.reshape(-1, d, e, d, e)))
    return entropy_nats_rows(spectra) - entropy_nats_rows(env_spectra).reshape(states.shape[:-2])


def _joint_slacks(joint: np.ndarray, tau: np.ndarray, d: int) -> np.ndarray:
    """S(Y|E) of the channel output minus the tau-mixture of S(X1|E) and
    S(X2|E), for each (X1, X2, E) state of a validated (N, D, D) stack."""
    s_out, s_1, s_2 = _conditional_entropies(*partial_swap_joint_stack(joint, tau, d), d)
    return s_out - tau * s_1 - (1.0 - tau) * s_2


def _conjecture_block(cfg: TrialConfig, indices: range) -> TrialBlock:
    """Counterexample-search trials `indices` for the conditional-entropy
    inequality.

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

    Per trial, draw order tau, the joint state (or its two legs), the
    perturbation if a candidate is re-checked, state 1, state 2. Every trial
    draws one row of normals long enough for the perturbation; a trial that
    re-checks no candidate takes its control arm from where the perturbation
    would start. Every step is stacked: the states, one
    :func:`partial_swap_joint_stack` call for the main arm and one for the
    candidates' perturbed states, and one :func:`partial_swap_global` call for
    the control arm, each state validated as the one-trial route validates it.
    """
    d = cfg.d
    threshold = -10.0 * cfg.tolerance
    main, control, (n_main, n_bump, n_control) = _conjecture_layout(cfg)
    taus, normals = _block_normals(cfg, "conjecture", indices, n_main + n_bump + n_control)
    tau = np.array(taus)
    legs = [states_from_gaussians(g, cfg.state_kind)[0] for g in _complex_gaussians(normals, main)]
    joint = legs[0] if len(legs) == 1 else make_density_stack(_kron_pairs(*legs))[0]
    slack = _joint_slacks(joint, tau, d)

    candidate = slack < threshold
    (g,) = _complex_gaussians(normals[candidate, n_main : n_main + n_bump], [joint.shape[1:]])
    eps = 1e-8
    perturbed, _ = make_density_stack((1.0 - eps) * joint[candidate] + eps * states_from_gaussians(g, "ginibre")[0])
    rechecked = iter(_joint_slacks(perturbed, tau[candidate], d).tolist())

    # Control arm: product-shaped inputs, conditioning on both environments.
    drawn = np.where(candidate[:, None], normals[:, n_main + n_bump :], normals[:, n_main : n_main + n_control])
    g1, g2 = _complex_gaussians(drawn, control)
    (rho1, lam1), (rho2, lam2) = states_from_gaussians(g1, cfg.state_kind), states_from_gaussians(g2, cfg.state_kind)
    s_out, s_1, s_2 = (
        _conditional_entropies(*pair, d)
        for pair in (partial_swap_global(rho1, rho2, tau, d), (rho1, lam1), (rho2, lam2))
    )

    # A trial that re-checks no candidate holds None for conjecture_perturbed.
    slacks = {
        "conjecture": slack.tolist(),
        "conjecture_perturbed": [next(rechecked) if c else None for c in candidate.tolist()],
        "conjecture_control": (s_out - tau * s_1 - (1.0 - tau) * s_2).tolist(),
    }
    reverified = [value is not None and value < threshold for value in slacks["conjecture_perturbed"]]
    # Only the trivial-environment slack is asserted; the rest are diagnostics.
    soft = set(slacks) - ({"conjecture"} if cfg.d_e1 == 1 else set())
    flags = {"reverified_candidate": [not r for r in reverified], **_verdict(cfg, slacks, {}, soft)}
    return TrialBlock("conjecture", indices, taus, (), slacks, {}, flags, [0] * len(taus))


# Block functions: (cfg, indices) -> the TrialBlock of those trials.
_TRIAL_FNS = {
    "lemma": _lemma_block,
    "theorem": _theorem_block,
    "qepi": _qepi_block,
    "concavity": _concavity_block,
    "conjecture": _conjecture_block,
}


def _run_block(experiment: str, cfg: TrialConfig, indices: range) -> TrialBlock:
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
    more than _BLOCK_BYTES holds of the experiment's largest stacked array,
    and for lemma and conjecture no more than _MAX_BLOCK."""
    if experiment in _BLOCK_SIZE:
        return _BLOCK_SIZE[experiment]
    cap = _MAX_BLOCK
    if experiment == "theorem":
        searched = sum(1 for kappa, _ in resolve_kappas(cfg) if kappa > 0.0)
        per_trial = 16 * max(searched, 1) * CLIMB_RESTARTS * (cfg.d_e1 * cfg.d_e2) ** 3
        cap = max(1, _BLOCK_BYTES // per_trial)
    elif experiment == "lemma":
        cap = min(cap, max(1, _BLOCK_BYTES // (16 * (cfg.d * cfg.d_e1 * cfg.d_e2) ** 2)))
    else:
        cap = min(cap, max(1, _BLOCK_BYTES // (8 * sum(_conjecture_layout(cfg)[2]))))
    return min(cap, math.ceil(cfg.trials / workers))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, so a taskset or cpuset limit is not oversubscribed)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(experiment: str, cfg: TrialConfig, parallel: int = 1) -> Iterator[TrialBlock]:
    """All trials of one experiment, one TrialBlock at a time, in index
    order, run by up to `parallel` processes: no more than the CPUs this
    process may use or the blocks there are. The rows are the same whatever
    `parallel` is: each trial's randomness is a pure function of (seed,
    experiment, index). The configuration is checked before the first block
    runs; a serial block runs only when the caller asks for it, so the caller
    holds only the blocks it keeps."""
    validate_config(cfg, experiment)
    _check_integer("parallel", parallel)
    if parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {parallel}")
    workers = min(int(parallel), _usable_cpus())
    if cfg.trials < 2 * workers:
        workers = 1
    run = partial(_run_block, experiment, cfg)
    size = _block_size(experiment, cfg, workers)
    blocks = [range(start, min(start + size, cfg.trials)) for start in range(0, cfg.trials, size)]
    # A pool forks all of its workers at the first submit.
    workers = min(workers, len(blocks))
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


def run_metadata(cfg: TrialConfig) -> dict:
    return {
        "samplers": normalize_state_kind(cfg.state_kind),
        "measurement_family": "haar-projective-rank1",
        "rng": RNG_ALGORITHM,
        "log_base": "natural",
        "version": __version__,
    }


def summarize(blocks: Iterable[TrialBlock], metadata: dict | None = None) -> Summary:
    """Fold blocks column by column in one pass; the result depends only on
    the rows, in order, not on how they are split into blocks.

    A NaN slack or residual is sticky: it becomes its key's min_slack or the
    max_residual, whatever rows come before or after it, and a row with a NaN
    slack lands in the last histogram bin, whatever its other slacks. Of equal
    values the first is kept (0.0 and -0.0 are equal). Each row with a slack
    lands in the bin of its worst one.
    """
    trials = violations = 0
    min_slack: dict[str, float] = {}
    max_residual = 0.0
    counts = [0] * (len(_HISTOGRAM_EDGES) + 1)
    for block in blocks:
        trials += len(block.taus)
        violations += block.passed.count(False)
        for key, column in block.slacks.items():
            value = _extreme(min, column)
            if value is None:
                continue
            low = min_slack.get(key)
            if low is None or value < low or value != value:
                min_slack[key] = value
        for column in block.residuals.values():
            value = _extreme(max, column)
            if value is not None and (value > max_residual or value != value):
                max_residual = value
        if block.slacks:
            counts = [a + b for a, b in zip(counts, _worst_slack_counts(list(block.slacks.values())))]
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


def _extreme(pick, column: list) -> float | None:
    """pick (min or max) of the values of `column`, the first of equal ones;
    a NaN if it holds one; None if it holds no value."""
    values = [v for v in column if v is not None] if None in column else column
    if not values:
        return None
    if math.isnan(sum(values)):  # a NaN, or inf and -inf
        for value in values:
            if value != value:
                return value
    return pick(values)


def _worst_slack_counts(columns: list[list]) -> list[int]:
    """Histogram counts of the rows of slack `columns` by their worst slack,
    NaN the worst; a row that holds no slack is not counted."""
    holes = [[v is None for v in column] for column in columns if None in column]
    filled = np.array(
        [[math.inf if v is None else v for v in column] if None in column else column for column in columns],
        dtype=np.float64,
    )
    # np.min propagates NaN, and searchsorted places NaN after every edge.
    bins = np.searchsorted(_HISTOGRAM_EDGES, filled.min(axis=0), side="right")
    if len(holes) == len(columns):
        bins = bins[~np.logical_and.reduce(holes)]
    return np.bincount(bins, minlength=len(_HISTOGRAM_EDGES) + 1).tolist()
