"""The conditioned experiments: lemma, theorem and conjecture.

* lemma      -- the conditional output of the bilocal channel equals the
                addition rule applied to the conditioned inputs, and its
                spectrum is majorized by the mixed conditional spectra.
* theorem    -- conditional entropy power inequality, per-measurement form:
                asserted at the slack's worst case that a hill climb over
                product bases U1 (x) U2 finds, starting from the Haar pair.
* conjecture -- counterexample search for the two-environment
                conditional-entropy version on product inputs
                (X1, E1) (x) (X2, E2), asserted where E1 and E2 are trivial.

They add environments, local measurements and the basis search of
``entropy`` to what qepi and concavity need, so ``harness`` imports this
module on the first block or block size of one of them. Each block function
of :data:`BLOCK_FNS` follows the rules ``harness`` sets for every block
function through the helpers it reads there, among them the slack
(``harness._measured_slacks``) and its gap (``harness._mixture_gap``).

theorem and lemma share the stacked setting draw (:func:`_theorem_settings`),
the global channel and the validated conditioning of the two inputs and the
output (:func:`_condition_bilocal`), which hands back states, spectra and
skipped outcome pairs on the outcome grid. A bilocal measurement has one
layout (:func:`_bilocal_layout`), which the climb's objective
(:func:`_slack_objective`) and the conditioning read, and its outcome pairs
one weight rule, q1 x q2 (``entropy._pair_weights``). At d = 2 the
objective scores each outcome pair from the two conditioned inputs by the
lemma's identity and never reads the joint output; at d >= 3 it conditions
the joint output, because scoring pairs from the inputs' d x d blocks (the
addition rule, then eigvalsh) measured no faster there. The recorded slack
always conditions the joint output of :func:`partial_swap_global`. The
theorem climbs every search of the block in lockstep and conditions at the
pairs found; the lemma checks every kept outcome pair of the block in one
:func:`partial_swap_closed_stack` call and folds them on the outcome grid.
Every value equals what the trial alone computes, bit for bit. conjecture
puts the drawn inputs, and a candidate's inputs moved toward their bumps,
through the same global channel (:func:`_two_env_slacks`), and every trial
draws one fixed-length row, bumps included, so no draw depends on whether a
trial has a candidate.

:func:`block_cap` bounds the trials of a block: of the theorem, at most as
many as :data:`_BLOCK_BYTES` holds of its largest stacked array; of lemma
and conjecture, :data:`_MAX_BLOCK`.
"""

from __future__ import annotations

import numpy as np

# harness's helpers are read as attributes of the module, so each keeps one
# binding, the one harness's own blocks call.
from . import harness
from .channels import partial_swap_closed_stack, partial_swap_global
from .entropy import CLIMB_RESTARTS, _pair_weights, climb_product_basis, projective_entropy_power
from .harness import TrialBlock, TrialConfig
from .measurement import check_complete, condition_all_stack
from .rand import (
    complex_gaussians,
    derived_indices,
    haar_unitaries,
    normal_count,
    state_columns,
    states_from_gaussians,
)
from .states import entropy_nats_rows, make_density_stack, mixture_majorization_rows

# Most trials per block of lemma and conjecture: it bounds a run's peak
# memory. Without it a small-dimension block holds every trial. Median
# ru_maxrss of 3 launches at --parallel 1 (2-core VM, Python 3.11), with the
# cap and without it: `verify-lemma --dim 3 --env-dim1 3 --env-dim2 3` 39.7 MB
# against 61 MB at 400 trials and 70 MB at 4 000. Uncapped, such runs took
# 12-27% less time when the cap was set. A block of 32 d=2 trials still costs
# several times the 0.7 ms of CPU that a pool block costs to send and return.
_MAX_BLOCK = 32

# Bytes of the largest stacked array of a theorem block: a d >= 3 climb's
# basis outcome pairs of the joint output, 16 bytes x K searched kappas x
# CLIMB_RESTARTS x (e1 e2)^3 per trial. 6 MiB holds 16 trials at
# e1 = e2 = 4 with the grid's K = 2. A d = 2 climb scores outcome pairs from
# the conditioned inputs and builds no such array, so the rule over-bounds
# it; it is kept there so that block sizes, and the memory of a block at
# large e, stay as they were. At d = 2, e1 = e2 = 2 it allows 1 024 trials
# per block, and a block costs about 27 KB per trial: `verify-theorem --dim 2`
# peaks at 38.7 MB at 50 trials and 64.3 MB at 1 000 (--parallel 1, 2-core
# VM, Python 3.11).
_BLOCK_BYTES = 6 * 2**20

__all__ = ["BLOCK_FNS", "block_cap"]


def block_cap(experiment: str, cfg: TrialConfig) -> int:
    """Most trials per block of a lemma, theorem or conjecture run: for the
    theorem no more than _BLOCK_BYTES holds of its largest stacked array,
    for lemma and conjecture _MAX_BLOCK. A lemma trial's largest array, its
    (Y, E1, E2) output, is at most 16 bytes x 96^2 (6 MiB holds 42 trials),
    and a conjecture trial draws at most 4 608 normals (36 KiB), so a byte
    rule would never bind before _MAX_BLOCK."""
    if experiment != "theorem":
        return _MAX_BLOCK
    searched = sum(1 for kappa in harness._kappa_grid(cfg, "theorem_measured")[0] if kappa > 0.0)
    per_trial = 16 * max(searched, 1) * CLIMB_RESTARTS * (cfg.d_e1 * cfg.d_e2) ** 3
    return max(1, _BLOCK_BYTES // per_trial)


def _kron_pairs(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """np.kron of each matrix pair of two stacks with equal leading axes."""
    e1, e2 = u1.shape[-1], u2.shape[-1]
    return (u1[..., :, None, :, None] * u2[..., None, :, None, :]).reshape(*u1.shape[:-2], e1 * e2, e1 * e2)


def _bilocal_layout(d: int, rho1, rho2, joint, u1: np.ndarray, u2: np.ndarray):
    """The (state, basis) pairs of a bilocal measurement: (rho1, u1), (rho2,
    u2) and, unless joint is None, (joint, u1 (x) u2), whose outcome j e2 + k
    is the pair (j, k). Each (B, D, D) state stack is reshaped to
    (B, 1, ..., d, e, d, e), with a one per axis of the (B, ..., e, e) bases
    between B and the matrix axes."""
    lead = (len(rho1),) + (1,) * (u1.ndim - 3)
    pairs = [(rho1, u1), (rho2, u2)] + ([] if joint is None else [(joint, _kron_pairs(u1, u2))])
    return [(rho.reshape(*lead, d, u.shape[-1], d, u.shape[-1]), u) for rho, u in pairs]


def _slack_objective(d: int, rho1, rho2, joint, taus, kappas):
    """The per-measurement slack of B settings at K kappas as a function of
    the stacked factors (U1, U2): the q1 x q2-weighted entropy power of the
    conditioned outputs minus the tau-mixture of the conditioned-input
    expectations. It is the objective the search climbs.

    rho1, rho2 and joint are the (B, D, D) matrix stacks of the inputs on
    (X, E1) and (X, E2) and of the output on (Y, E1, E2), X of dim d; taus
    has shape (B,) and kappas (K,). The objective maps factor stacks of shape
    (B, K, R, e_j, e_j), R pairs per setting and kappa, to the (B, K, R)
    slacks; each setting's states are broadcast over its climbs, not copied.

    Both routes go through :func:`projective_entropy_power`. At d = 2 it gets
    the two inputs and tau, and scores the output's outcome pairs from the
    conditioned inputs by the lemma's identity, so joint is not read. At
    d >= 3 it conditions joint on the (e1 e2)^2 outer products of the bases'
    columns, because scoring pairs from the inputs' d x d blocks (the
    addition rule, then eigvalsh) measured no faster there.

    Every value equals, bit for bit, what the setting, kappa and pair give
    alone: each probability-weighted sum is one vector dot product per climb,
    summed in the order `q @ p` sums a single pair's. It shares the gap, the
    layout and the weights with the recorded slack but keeps np.exp and these
    dot products: they decide which steps the climb accepts, so the bases found.
    """
    tau = np.asarray(taus, dtype=np.float64)[:, None, None]
    kappa = np.asarray(kappas, dtype=np.float64)[:, None]

    def dot(x, y):
        return (x[..., None, :] @ y[..., :, None])[..., 0, 0]

    output, swap = (None, tau) if d == 2 else (joint, None)

    def slack(factors) -> np.ndarray:
        rho4s, bases = zip(*_bilocal_layout(d, rho1, rho2, output, *factors))
        (q1, p1), (q2, p2), (_, p_out) = projective_entropy_power(rho4s, bases, kappa, swap)
        return harness._mixture_gap(tau, dot(_pair_weights(q1, q2), p_out), dot(q1, p1), dot(q2, p2))

    return slack


def _theorem_settings(cfg: TrialConfig, experiment: str, indices: range):
    """The settings of the trials `indices` of `experiment` (theorem or
    lemma), stacked: the taus, the validated (N, D, D) input state stacks and
    the (N, e_j, e_j) Haar basis stacks. Per trial, draw order tau, state 1,
    state 2, basis 1, basis 2, each row bit for bit the trial's own draw
    (:func:`haar_unitaries` replays a row whose Haar draw fails a check)."""
    envs = (cfg.d_e1, cfg.d_e2)
    shapes = [(cfg.d * e, state_columns(cfg.d * e, cfg.state_kind, cfg.rank)) for e in envs]
    start = normal_count(shapes)
    taus, normals = harness._block_normals(cfg, experiment, indices, start + normal_count([(e, e) for e in envs]))
    (rho1, _), (rho2, _) = (states_from_gaussians(g, cfg.state_kind) for g in complex_gaussians(normals, shapes))
    # Row i replays from the stream of trial indices[i], just past its tau.
    u1, u2 = haar_unitaries(
        normals, start, envs, lambda row: next(harness._trial_streams(cfg, experiment, indices[row[0] :]))[1]
    )
    return taus, rho1, rho2, u1, u2


def _condition_bilocal(d: int, rho1, rho2, joint, u1: np.ndarray, u2: np.ndarray):
    """The :func:`condition_all_stack` results of the three pairs of
    :func:`_bilocal_layout`, u1 and u2 each checked by :func:`check_complete`,
    and the (B, ..., e1, e2) mask of the outcome pairs skipped, negligible for
    any of the three states."""
    check_complete(u1)
    check_complete(u2)
    measured = [condition_all_stack(rho4, u) for rho4, u in _bilocal_layout(d, rho1, rho2, joint, u1, u2)]
    neg1, neg2, neg = (negligible for _, negligible, *_ in measured)
    skip = neg.reshape(*neg.shape[:-1], u1.shape[-1], u2.shape[-1]) | neg1[..., :, None] | neg2[..., None, :]
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
    of kappa t's search draws from the trial's stream key with t, then r
    mixed in (:func:`derived_indices`). Every step is stacked: the setting
    draws, one :func:`partial_swap_global` call, one lockstep climb of every
    search, and one :func:`_condition_bilocal` call over every trial's Haar
    and found pairs, with the one-trial route's checks. The slacks are
    ``harness._measured_slacks`` at each kappa's pair; prob_norm is the
    largest residual of the output's outcome totals over the trial's pairs.
    """
    kappas, keys, soft = harness._kappa_grid(cfg, "theorem_measured")
    searched = [t for t, kappa in enumerate(kappas) if kappa > 0.0]
    taus, rho1, rho2, haar1, haar2 = _theorem_settings(cfg, "theorem", indices)
    joint, _ = partial_swap_global(rho1, rho2, np.array(taus), cfg.d)

    # Pair 0 of a trial is its Haar pair, pair 1 + c the one its search for
    # kappa searched[c] finds.
    u1, u2 = haar1[:, None], haar2[:, None]
    if searched:
        objective = _slack_objective(cfg.d, rho1, rho2, joint, taus, [kappas[t] for t in searched])
        # Every search of a trial starts at its Haar pair.
        starts = [u.repeat(len(searched), axis=1) for u in (u1, u2)]
        # Search c of trial i has the stream key of the trial's key with
        # searched[c] mixed in.
        trial_streams = np.array(harness._stream_keys("theorem", indices), dtype=np.uint64)
        streams = derived_indices(trial_streams[:, None], np.array(searched, dtype=np.uint64))
        _, (found1, found2) = climb_product_basis(objective, starts, cfg.seed, streams)
        u1, u2 = np.concatenate([u1, found1], axis=1), np.concatenate([u2, found2], axis=1)
    (q1, neg1, _, _, lam1), (q2, neg2, _, _, lam2), (_, neg, prob_norms, _, lam), skip = _condition_bilocal(
        cfg.d, rho1, rho2, joint, u1, u2
    )
    # The pair that kappa t's slack reads.
    pairs = [1 + searched.index(t) if kappa > 0.0 else 0 for t, kappa in enumerate(kappas)]
    grids = ((_pair_weights(q1, q2), skip.reshape(neg.shape), lam), (q1, neg1, lam1), (q2, neg2, lam2))
    values = harness._measured_slacks(kappas, taus, *[[x[:, pairs] for x in grid] for grid in grids])
    slacks = dict(zip(keys, values.T.tolist()))
    residuals = {"prob_norm": prob_norms.max(axis=1).tolist()}
    skipped = neg[:, 0].sum(axis=1).tolist()  # at the Haar pair
    flags = harness._verdict(cfg, slacks, residuals, soft)
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
    is what the trial computes alone, bit for bit: a trial's minimum or maximum
    is taken over its (e1, e2) grid, skipped pairs filled with inf or 0.0
    (every value is finite, no prefix slack is -0.0), and prob_norm is the
    residual of its output's outcome total that :func:`condition_all_stack`
    returns.
    """
    taus, rho1, rho2, u1, u2 = _theorem_settings(cfg, "lemma", indices)
    tau = np.array(taus)
    joint, _ = partial_swap_global(rho1, rho2, tau, cfg.d)
    (q1, _, _, states1, lam1), (q2, _, _, states2, lam2), (q, _, prob_norm, states, lam), skip = _condition_bilocal(
        cfg.d, rho1, rho2, joint, u1, u2
    )
    # Trial i's kept outcome pair (j, k) is the output's outcome g = j e2 + k.
    i, j, k = kept = np.nonzero(~skip)
    g = j * cfg.d_e2 + k
    targets, _ = partial_swap_closed_stack(states1[i, j], states2[i, k], tau[i])
    pair_slacks, totals = mixture_majorization_rows(tau[i], lam1[i, j], lam2[i, k], lam[i, g])

    def fold(values, fill, pick):
        grid = np.full(skip.shape, fill)
        grid[kept] = values
        return pick(grid, axis=(1, 2)).tolist()

    slacks = {"lemma_majorization": fold(pair_slacks, np.inf, np.min)}
    residuals = {
        "lemma_identity": fold(np.abs(states[i, g] - targets).max(axis=(1, 2)), 0.0, np.max),
        "major_total": fold(totals, 0.0, np.max),
        "factorization": np.abs(q - _pair_weights(q1, q2)).max(axis=1).tolist(),
        "prob_norm": prob_norm.tolist(),
    }
    flags = harness._verdict(cfg, slacks, residuals)
    return TrialBlock("lemma", indices, taus, (), slacks, residuals, flags, skip.sum(axis=(1, 2)).tolist())


def _conditional_entropies(states: np.ndarray, spectra: np.ndarray, d: int) -> np.ndarray:
    """S(XE) - S(E) in nats of each (X, E) state of a validated
    (..., d*e, d*e) stack with descending spectra `spectra`, X of dim d. Each
    E marginal is validated, as make_density validates it."""
    e = states.shape[-1] // d
    _, env_spectra = make_density_stack(np.einsum("naeaf->nef", states.reshape(-1, d, e, d, e)))
    return entropy_nats_rows(spectra) - entropy_nats_rows(env_spectra).reshape(states.shape[:-2])


def _two_env_slacks(first, second, tau: np.ndarray, d: int) -> np.ndarray:
    """S(Y|E1E2) of the bilocal channel's output minus the tau-mixture of
    S(X1|E1) and S(X2|E2), per row of two (states, spectra) pairs of
    validated (X, E1) and (X, E2) stacks."""
    s_out, s_1, s_2 = (
        _conditional_entropies(*pair, d) for pair in (partial_swap_global(first[0], second[0], tau, d), first, second)
    )
    return harness._mixture_gap(tau, s_out, s_1, s_2)


def _conjecture_block(cfg: TrialConfig, indices: range) -> TrialBlock:
    """Counterexample-search trials `indices` for the two-environment
    conditional-entropy inequality S(Y|E1E2) >= tau S(X1|E1) + (1-tau) S(X2|E2)
    on product inputs (X1, E1) (x) (X2, E2), drawn as the theorem's are.

    With trivial environments it is the proven entropic qepi, and its slack
    is asserted. Otherwise the slack is a diagnostic, and one below -10*tol is
    a candidate: it is a finding (the reverified_candidate flag) only if it
    survives moving both inputs by 1e-8 toward ginibre states
    (conjecture_perturbed, None in a trial with no candidate). Recomputing it
    from re-symmetrized input would change nothing: every validated state is
    exactly Hermitian, so make_density returns it bit for bit.

    Per trial, draw order tau, state 1, state 2, the bump of state 1, the
    bump of state 2: every trial draws the bumps, so no draw depends on
    whether it has a candidate. Every step is stacked: the states, one
    :func:`partial_swap_global` call for the drawn inputs and one for the
    candidates' perturbed ones, each state validated as the one-trial route
    validates it.
    """
    threshold = -10.0 * cfg.tolerance
    sides = [cfg.d * e for e in (cfg.d_e1, cfg.d_e2)]
    shapes = [(n, state_columns(n, cfg.state_kind, cfg.rank)) for n in sides]
    bumps = [(n, n) for n in sides]
    start = normal_count(shapes)
    taus, normals = harness._block_normals(cfg, "conjecture", indices, start + normal_count(bumps))
    tau = np.array(taus)
    drawn = [states_from_gaussians(g, cfg.state_kind) for g in complex_gaussians(normals, shapes)]
    slack = _two_env_slacks(*drawn, tau, cfg.d)

    candidate = slack < threshold
    perturbed = [
        make_density_stack((1.0 - 1e-8) * rho[candidate] + 1e-8 * states_from_gaussians(g, "ginibre")[0])
        for (rho, _), g in zip(drawn, complex_gaussians(normals[candidate, start:], bumps))
    ]
    rechecked = iter(_two_env_slacks(*perturbed, tau[candidate], cfg.d).tolist())
    column = [next(rechecked) if c else None for c in candidate.tolist()]
    slacks = {"conjecture": slack.tolist(), "conjecture_perturbed": column}
    soft = set(slacks) - ({"conjecture"} if cfg.d_e1 == cfg.d_e2 == 1 else set())
    flags = {"reverified_candidate": [v is None or not v < threshold for v in column]}
    flags |= harness._verdict(cfg, slacks, {}, soft)
    return TrialBlock("conjecture", indices, taus, (), slacks, {}, flags, [0] * len(taus))


# Block functions: (cfg, indices) -> the TrialBlock of those trials.
BLOCK_FNS = {"lemma": _lemma_block, "theorem": _theorem_block, "conjecture": _conjecture_block}
