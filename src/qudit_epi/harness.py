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
                the proven window kappa <= 1/(ln d)^2 (:func:`kappa_bounds`).
* conjecture -- counterexample search for the conditional-entropy version with
                an arbitrary (possibly entangled) joint environment.

This module computes the blocks of qepi and concavity, which need only
states, the closed-form channel and spectra. The lemma, theorem and
conjecture blocks add environments, local measurements and the basis search;
they live in ``conditional``, which their first block or block size imports
(:func:`_conditioned`), so a qepi or concavity run imports neither it nor
``entropy``.

Every trial derives all of its randomness from (seed, its stream key), the
key from :func:`_stream_keys`, so trials can run in any order or in parallel
and replay exactly.

Every experiment is a block function `(cfg, indices) -> TrialBlock`
(:data:`_TRIAL_FNS`), and a block travels as columns (:class:`TrialBlock`)
from its block function to the rendered lines and the summary: no per-trial
object is built on the way. A block function takes each trial's tau and its
stream from one generator that :func:`_trial_streams` re-keys per trial, and
draws that trial's values in the order of the one-trial code: Gaussians
as one row of normals (:func:`_block_normals`), which ``rand`` parses and
turns into Haar bases, replaying a failed draw. Each experiment takes its
kappas, slack keys and soft keys from :func:`_kappa_grid`, their one owner.
Every entropy-power slack is :func:`_mixture_gap`: an output value minus the
tau-mixture of the two inputs' (Audenaert, Datta and Ozols, J. Math. Phys.
57, 052202 (2016)). :func:`_measured_slacks` is its form on outcome grids,
the theorem's slack, and qepi's (:func:`_qepi_checks`) with one certain
outcome per state. qepi and concavity (:func:`_concavity_checks`) compute a
block as stacked arrays on spectra, each value what the trial alone computes,
bit for bit, so no line depends on the block size or --parallel.

The slack and residual columns are computed on a block's validated stacks
and the spectra they come with, under two rules that keep each value bit for
bit the one-trial route's: each entropy power e^(kappa S) is math.exp of
kappa S (:func:`_entropy_powers`), and each sum over outcomes or over a
spectrum adds its terms left to right (``states.ordered_sum``), so no value
depends on numpy's exp, its pairwise sums or the Python version's builtin
sum. A :class:`TrialBlock` is a NamedTuple of its columns; its `passed`
property is derived from `pass_flags`.

:func:`_block_size` sizes the blocks: 512 trials of qepi or concavity; for
the others the trials divided evenly over the workers, at most as many as
``conditional.block_cap`` allows. A block that raises is
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
from .channels import partial_swap_closed_stack
from .errors import QuditEpiError, UsageError
from .rand import (
    RNG_ALGORITHM,
    KeyedStreams,
    check_integer,
    complex_gaussians,
    normal_count,
    normalize_state_kind,
    state_columns,
    states_from_gaussians,
)
from .states import entropy_nats_rows, make_density, mixture_majorization_rows, ordered_sum

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

# Blocks submitted to the --parallel pool and not yet handed to the caller,
# per worker.
_WINDOW_PER_WORKER = 2

# Left edges of the summary's slack bins. No edge sits at 0: a slack that is 0
# in exact arithmetic lands in [-1e-9, 1e-9) whatever its last bit.
_HISTOGRAM_EDGES = (-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3)

__all__ = [
    "TrialConfig",
    "TrialBlock",
    "Summary",
    "EXPERIMENTS",
    "kappa_bounds",
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

    Each slack, residual and pass flag key maps to a float or bool column
    with one entry per row; only soft slacks (:func:`_verdict`) hold None, in
    rows without a value. A negligible count of 0 means no outcome was skipped.
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
        check_integer(name, getattr(cfg, name))
    if cfg.rank is not None:
        check_integer("rank", cfg.rank)
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
        if _kappa_grid(cfg, "kappa")[2] and not cfg.exploratory_kappa:
            raise UsageError(
                f"--kappa {cfg.kappa} exceeds the validity window 1/(ln d)^2 = {kappa_bounds(cfg.d):.6g}; "
                "pass --exploratory-kappa to scan it as a diagnostic"
            )


def _is_real(value) -> bool:
    """A real number and no bool: a bool would run as 0 or 1 but be written
    as true or false."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _check_real(name: str, value) -> None:
    """Reject a tau or tolerance that is not a real number, before the range
    checks compare it."""
    if not _is_real(value):
        raise UsageError(f"{name} must be a real number, got {value!r}")


def kappa_bounds(d: int) -> float:
    """1/(ln d)^2: the upper edge of the window of kappa in which the entropy
    power exp(kappa * S) of a d-level state is concave, and the largest kappa
    that the inequality checks assert."""
    if d < 2:
        raise QuditEpiError(f"need d >= 2, got {d}")
    return 1.0 / math.log(d) ** 2


def _kappa_grid(cfg: TrialConfig, prefix: str):
    """(kappa values, their slack keys `<prefix>.k<t>`, the soft keys) of one
    experiment: "grid" is 0, k1/2, k1 and "max" is k1, k1 = kappa_bounds(d).
    A kappa is soft, a diagnostic, where it exceeds k1 (1 + 1e-12)."""
    kappa1 = kappa_bounds(cfg.d)
    kappas = {"grid": (0.0, kappa1 / 2, kappa1), "max": (kappa1,)}.get(cfg.kappa) or (float(cfg.kappa),)
    keys = [f"{prefix}.k{t}" for t in range(len(kappas))]
    return kappas, keys, {key for key, kappa in zip(keys, kappas) if kappa > kappa1 * (1 + 1e-12)}


def _verdict(cfg: TrialConfig, slacks: dict, residuals: dict, soft=frozenset()) -> dict[str, list]:
    """The pass flag columns of a block's slack and residual columns: each
    slack not in `soft` must be >= -tol and each residual <= tol, with
    tol = --tol, so a NaN fails. Soft slacks are diagnostics."""
    tol = cfg.tolerance
    flags = {key: (np.asarray(column) >= -tol).tolist() for key, column in slacks.items() if key not in soft}
    for key, column in residuals.items():
        flags[key] = (np.asarray(column) <= tol).tolist()
    return flags


def _draw_tau(cfg: TrialConfig, index: int, gen: np.random.Generator) -> float:
    if cfg.tau is not None:
        return float(cfg.tau)  # an int tau is written as a float too
    if index < len(_FORCED_TAUS):
        return _FORCED_TAUS[index]
    return float(gen.random())


def _stream_keys(experiment: str, indices: range) -> range:
    """The stream key of each trial of `indices`: its experiment's base plus its index."""
    base = _STREAM_BASE[experiment]
    return range(base + indices.start, base + indices.stop, indices.step)


def _trial_streams(cfg: TrialConfig, experiment: str, indices: range):
    """Per trial of `indices`, its tau and one generator re-keyed to the
    trial's stream, drawn past tau. The generator is shared: finish a
    trial's draws before taking the next."""
    streams = KeyedStreams(cfg.seed)
    for index, key in zip(indices, _stream_keys(experiment, indices)):
        gen = streams.at(key)
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


def _entropy_powers(kappa, entropies: np.ndarray) -> np.ndarray:
    """e^(kappa S) of each entry of an array of entropies S, kappa a float or
    an array broadcasting against them. Each power is taken by math.exp,
    whose last bit np.exp does not always match, so every slack column takes
    its powers here."""
    x = kappa * entropies
    return np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _qepi_block(cfg: TrialConfig, indices: range) -> TrialBlock:
    """qepi trials `indices`: per trial, draw order tau, state 1, state 2."""
    shapes = [(cfg.d, state_columns(cfg.d, cfg.state_kind, cfg.rank))] * 2
    taus, normals = _block_normals(cfg, "qepi", indices, normal_count(shapes))
    (rho1, lam1), (rho2, lam2) = (states_from_gaussians(g, cfg.state_kind) for g in complex_gaussians(normals, shapes))
    _, lam_out = partial_swap_closed_stack(rho1, rho2, np.array(taus, dtype=np.float64))
    return _qepi_checks(cfg, indices, taus, lam1, lam2, lam_out)


def _qepi_checks(cfg: TrialConfig, indices: range, taus: list, lam1, lam2, lam_out) -> TrialBlock:
    """The qepi block of trials `indices` from their taus and the (N, d)
    descending spectra of their two inputs and their output. Its slacks are
    the theorem's (:func:`_measured_slacks`) with one certain outcome per state."""
    maj_slacks, totals = mixture_majorization_rows(taus, lam1, lam2, lam_out)
    kappas, keys, soft = _kappa_grid(cfg, "qepi")
    values = _measured_slacks(kappas, taus, *[(1.0, False, lam[:, None, None]) for lam in (lam_out, lam1, lam2)])
    slacks = {"qepi_majorization": maj_slacks.tolist(), **dict(zip(keys, values.T.tolist()))}
    residuals = {"major_total": totals.tolist()}
    flags = _verdict(cfg, slacks, residuals, soft)
    return TrialBlock("qepi", indices, taus, kappas, slacks, residuals, flags, [0] * len(taus))


def _mixture_gap(tau, out, first, second):
    """out minus the tau-mixture of first and second, elementwise: every entropy-power check's slack."""
    return out - tau * first - (1.0 - tau) * second


def _measured_slacks(kappas, taus, out, first, second) -> np.ndarray:
    """The (B, K) per-measurement slacks at K kappas: the probability-weighted
    entropy power of the conditioned outputs minus the tau-mixture of the
    conditioned inputs', each over the outcomes not skipped. out, first and
    second are (probabilities, skip mask, descending spectra) triples on a
    (B, K, n) outcome grid, or a (B, 1, n) one that serves every kappa."""
    kappa = np.array(kappas)[:, None]
    e_out, e_first, e_second = (
        ordered_sum(np.where(skip, 0.0, probs * _entropy_powers(kappa, entropy_nats_rows(spectra))))
        for probs, skip, spectra in (out, first, second)
    )
    return _mixture_gap(np.array(taus)[:, None], e_out, e_first, e_second)


def _concavity_block(cfg: TrialConfig, indices: range) -> TrialBlock:
    """Concavity trials `indices`: per trial, draw order tau, p, q."""
    alpha = np.ones(cfg.d)
    taus = []
    pq = np.empty((len(indices), 2, cfg.d))
    for row, (tau, gen) in enumerate(_trial_streams(cfg, "concavity", indices)):
        taus.append(tau)  # recorded only; concavity has no mixing step
        pq[row, 0] = gen.dirichlet(alpha)
        pq[row, 1] = gen.dirichlet(alpha)
    return _concavity_checks(cfg, indices, taus, pq[:, 0], pq[:, 1])


def _concavity_checks(cfg: TrialConfig, indices: range, taus: list, p, q) -> TrialBlock:
    """The concavity block of trials `indices` from their taus and (N, d)
    distributions p and q. Its gap is not :func:`_mixture_gap` at tau = 1/2,
    which differs in the last bit."""
    entropies = np.stack([entropy_nats_rows(v) for v in (p, q, (p + q) / 2)])
    kappas, keys, soft = _kappa_grid(cfg, "concavity")
    p_p, p_q, p_mid = _entropy_powers(np.array(kappas)[:, None], entropies[:, None])
    slacks = dict(zip(keys, (p_mid - (p_p + p_q) / 2).tolist()))
    flags = _verdict(cfg, slacks, {}, soft)
    return TrialBlock("concavity", indices, taus, kappas, slacks, {}, flags, [0] * len(taus))


def _conditioned(experiment: str, cfg: TrialConfig, indices: range) -> TrialBlock:
    """The block of a lemma, theorem or conjecture run, computed by
    ``conditional``, which the first call imports."""
    from .conditional import BLOCK_FNS

    return BLOCK_FNS[experiment](cfg, indices)


# Block functions: (cfg, indices) -> the TrialBlock of those trials.
_TRIAL_FNS = {
    "lemma": partial(_conditioned, "lemma"),
    "theorem": partial(_conditioned, "theorem"),
    "qepi": _qepi_block,
    "concavity": _concavity_block,
    "conjecture": partial(_conditioned, "conjecture"),
}


def _run_block(experiment: str, cfg: TrialConfig, indices: range) -> TrialBlock:
    block = _TRIAL_FNS[experiment]
    try:
        return block(cfg, indices)
    except QuditEpiError:
        # Rerun trial by trial: the first failing trial raises, named.
        for index, key in zip(indices, _stream_keys(experiment, indices)):
            try:
                block(cfg, range(index, index + 1))
            except QuditEpiError as exc:
                raise type(exc)(f"{experiment} trial {index}, stream key {(cfg.seed, key)}: {exc}") from exc
        raise


def _block_size(experiment: str, cfg: TrialConfig, workers: int) -> int:
    """Trials per block: _BLOCK_SIZE for qepi and concavity. The others get
    the trials divided evenly over the workers, so each gets a block, but no
    more than ``conditional.block_cap`` allows."""
    if experiment in _BLOCK_SIZE:
        return _BLOCK_SIZE[experiment]
    from .conditional import block_cap

    return min(block_cap(experiment, cfg), math.ceil(cfg.trials / workers))


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
    check_integer("parallel", parallel)
    if parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {parallel}")
    workers = min(int(parallel), _usable_cpus())
    if cfg.trials < 2 * workers:
        workers = 1
    run = partial(_run_block, experiment, cfg)
    size = _block_size(experiment, cfg, workers)
    starts = range(0, cfg.trials, size)
    blocks = (range(start, min(start + size, cfg.trials)) for start in starts)
    # A pool forks all of its workers at the first submit.
    workers = min(workers, len(starts))
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
