"""Stacked blocks against one-trial computations.

The qepi and concavity references below rebuild the one-trial computations
from the one-state kernels in `oracles`, each trial opening its own
generator; the lemma's is the `lemma_trial` fixture. The theorem's blocks
must equal its blocks of one trial, and its stacked search objective must
equal the one-climb evaluation and the validated slack. Block values must
match exactly, signed zeros included, because output bytes depend on it.
"""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_epi import harness, rand
from qudit_epi.entropy import kappa_bounds
from qudit_epi.errors import ValidationError
from qudit_epi.harness import (
    TrialBlock,
    TrialConfig,
    _slack_objective,
    resolve_kappas,
    run_experiment,
    summarize,
)
from qudit_epi.rand import haar_unitary

import oracles
from oracles import (
    RandomSource,
    _bilocal_channel,
    _bilocal_setting,
    _theorem_slack,
    eigenvalues_descending,
    entropy_nats,
    multipartite,
    partial_swap_closed,
    prefix_slack,
    projective_from_unitary,
    sample_state,
    tensor,
    trial_source,
)


def _tau(cfg, index, gen):
    if cfg.tau is not None:
        return cfg.tau
    return (0.0, 0.5, 1.0)[index] if index < 3 else float(gen.uniform())


def _kappas(cfg):
    return tuple(k for k, _ in resolve_kappas(cfg))


def reference_qepi(cfg, index):
    gen = RandomSource(cfg.seed, harness._STREAM_BASE["qepi"] + index).generator()
    tau = _tau(cfg, index, gen)
    rho1 = sample_state(gen, cfg.d, cfg.state_kind, cfg.rank)
    rho2 = sample_state(gen, cfg.d, cfg.state_kind, cfg.rank)
    out = partial_swap_closed(rho1, rho2, tau)
    lam1, lam2, lam_out = (eigenvalues_descending(r) for r in (rho1, rho2, out))
    maj_slack, total = prefix_slack(tau * lam1 + (1.0 - tau) * lam2, lam_out)
    s1, s2, s_out = (entropy_nats(lam) for lam in (lam1, lam2, lam_out))
    slacks = {"qepi_majorization": maj_slack}
    for t, kappa in enumerate(_kappas(cfg)):
        slacks[f"qepi.k{t}"] = (
            math.exp(kappa * s_out) - tau * math.exp(kappa * s1) - (1.0 - tau) * math.exp(kappa * s2)
        )
    return index, tau, _kappas(cfg), slacks, {"major_total": abs(total)}


def reference_concavity(cfg, index):
    gen = RandomSource(cfg.seed, harness._STREAM_BASE["concavity"] + index).generator()
    tau = _tau(cfg, index, gen)
    p = gen.dirichlet(np.ones(cfg.d))
    q = gen.dirichlet(np.ones(cfg.d))
    hp, hq, hm = (entropy_nats(v) for v in (p, q, (p + q) / 2))
    slacks = {
        f"concavity.k{t}": math.exp(kappa * hm) - (math.exp(kappa * hp) + math.exp(kappa * hq)) / 2
        for t, kappa in enumerate(_kappas(cfg))
    }
    return index, tau, _kappas(cfg), slacks, {}


REFERENCES = {"qepi": reference_qepi, "concavity": reference_concavity}


def assert_matches_reference(experiment, cfg, rows):
    assert [r["index"] for r in rows] == list(range(cfg.trials))
    for r in rows:
        got = (r["index"], r["tau"], r["kappas"], r["slacks"], r["residuals"])
        expected = REFERENCES[experiment](cfg, r["index"])
        assert got == expected
        assert repr(got) == repr(expected)  # == does not tell -0.0 from 0.0


_KINDS = [("ginibre", None), ("pure", None), ("rank-k", 1), ("rank-k", 2)]
_TAUS = [None, 0.0, 1.0, 0.3]


@pytest.mark.parametrize("tau", _TAUS, ids=["random", "0", "1", "0.3"])
@pytest.mark.parametrize("kind, rank", _KINDS, ids=["ginibre", "pure", "rank-k:1", "rank-k:2"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_qepi_blocks_match_reference(monkeypatch, rows_of, d, kind, rank, tau):
    # Blocks of 7 put boundaries after trials 6 and 13.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    cfg = TrialConfig(d=d, state_kind=kind, rank=rank, tau=tau, trials=16, seed=29)
    assert_matches_reference("qepi", cfg, rows_of(run_experiment("qepi", cfg)))


@pytest.mark.parametrize("tau", _TAUS, ids=["random", "0", "1", "0.3"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_concavity_blocks_match_reference(monkeypatch, rows_of, d, tau):
    monkeypatch.setitem(harness._BLOCK_SIZE, "concavity", 7)
    cfg = TrialConfig(d=d, tau=tau, trials=16, seed=31)
    assert_matches_reference("concavity", cfg, rows_of(run_experiment("concavity", cfg)))


@pytest.mark.parametrize("experiment, d", [("qepi", 2), ("concavity", 4)])
def test_full_blocks_match_reference_and_parallel(rows_of, joined, experiment, d):
    # Four full-size blocks and a partial one: enough for two workers to share.
    cfg = TrialConfig(d=d, trials=4 * harness._BLOCK_SIZE[experiment] + 3, seed=37)
    serial = list(run_experiment(experiment, cfg, parallel=1))
    parallel = list(run_experiment(experiment, cfg, parallel=2))
    assert_matches_reference(experiment, cfg, rows_of(serial))
    assert joined(parallel) == joined(serial)
    assert summarize(serial) == summarize(parallel)


def test_failure_mid_block_names_its_trial(monkeypatch):
    cfg = TrialConfig(d=3, trials=600, seed=41)
    target = 300  # inside the first block of 512
    (target_tau,) = harness._run_block("qepi", cfg, range(target, target + 1)).taus
    real = harness.partial_swap_closed_stack

    def fails_on_target(r1, r2, tau):
        if target_tau in tau:
            raise ValidationError("smallest eigenvalue -1.0e-03 below -tol 1.0e-10")
        return real(r1, r2, tau)

    monkeypatch.setattr(harness, "partial_swap_closed_stack", fails_on_target)
    with pytest.raises(ValidationError) as err:
        list(run_experiment("qepi", cfg))
    key = (41, harness._STREAM_BASE["qepi"] + target)
    assert str(err.value) == f"qepi trial {target}, stream key {key}: smallest eigenvalue -1.0e-03 below -tol 1.0e-10"
    assert isinstance(err.value.__cause__, ValidationError)


_BLOCK_SIZES = [
    # (experiment, (d, e1, e2), kappa, trials, workers, trials per block)
    ("theorem", (2, 2, 2), "grid", 50, 1, 50),  # cap 1024
    ("theorem", (2, 2, 2), "grid", 50, 2, 25),
    ("theorem", (6, 4, 4), "grid", 64, 1, 16),  # the cap: 6 MiB / (16 B x 2 x 3 x 16^3)
    ("theorem", (6, 4, 4), "grid", 64, 2, 16),
    ("theorem", (6, 4, 4), "grid", 20, 2, 10),
    ("theorem", (6, 4, 4), "max", 64, 1, 32),  # one searched kappa
    ("theorem", (6, 4, 4), 0.0, 64, 1, 32),  # none searched: counted as one
    ("qepi", (3, 2, 2), "grid", 4000, 1, 512),
    ("qepi", (3, 2, 2), "grid", 50, 2, 512),  # not split over the workers
    ("concavity", (4, 2, 2), "max", 600, 2, 512),
    ("lemma", (3, 3, 3), "grid", 20, 1, 20),
    ("conjecture", (2, 2, 2), "grid", 20, 2, 10),
    ("lemma", (3, 3, 3), "grid", 1000, 2, 32),  # the cap
    ("lemma", (6, 4, 4), "grid", 1000, 1, 32),  # 6 MiB / (16 B x 96^2) = 42: the cap binds first
    ("lemma", (6, 4, 4), "grid", 60, 2, 30),
    ("conjecture", (2, 2, 2), "grid", 1000, 2, 32),  # the cap
    ("conjecture", (6, 4, 4), "grid", 64, 1, 9),  # 6 MiB / (8 B x 85 248 drawn normals)
    ("conjecture", (6, 4, 1), "grid", 64, 2, 9),  # 6 MiB / (8 B x 84 168)
    ("conjecture", (6, 4, 4), "grid", 12, 2, 6),
    ("conjecture", (6, 1, 1), "grid", 64, 1, 32),  # 2 880 normals: the cap binds
]


@pytest.mark.parametrize(
    "budget, dims, size",
    [(2**20, (6, 4, 4), 7), (2**20, (4, 4, 4), 16), (2**20, (2, 2, 2), 32), (2**10, (6, 4, 4), 1)],
)
def test_lemma_block_size_follows_the_byte_budget(monkeypatch, budget, dims, size):
    # 1 MiB holds 7 trials of the (Y, E1, E2) output at (6, 4, 4) (16 B x
    # 96^2 each) and 16 at (4, 4, 4); the cap of 32 binds at (2, 2, 2). A
    # budget below one trial still gives blocks of one.
    monkeypatch.setattr(harness, "_BLOCK_BYTES", budget)
    d, e1, e2 = dims
    assert harness._block_size("lemma", TrialConfig(d=d, d_e1=e1, d_e2=e2, trials=1000), 1) == size


@pytest.mark.parametrize("experiment, dims, kappa, trials, workers, size", _BLOCK_SIZES)
def test_block_size_follows_the_rule(experiment, dims, kappa, trials, workers, size):
    d, e1, e2 = dims
    cfg = TrialConfig(d=d, d_e1=e1, d_e2=e2, kappa=kappa, trials=trials)
    assert harness._block_size(experiment, cfg, workers) == size


def test_run_records_splits_trials_into_blocks_of_the_rule(monkeypatch):
    # theorem-d2's 50 trials run as one block at --parallel 1; 3 trials at
    # --parallel 2 are too few to share and also run as one block.
    seen = []
    real = harness._TRIAL_FNS["theorem"]

    def recording(cfg, indices):
        seen.append(indices)
        return real(cfg, indices)

    monkeypatch.setitem(harness._TRIAL_FNS, "theorem", recording)
    list(run_experiment("theorem", TrialConfig(d=2, trials=50, seed=3), 1))
    list(run_experiment("theorem", TrialConfig(d=2, trials=3, seed=3), 2))
    assert seen == [range(0, 50), range(0, 3)]


def test_parallel_blocks_come_in_index_order_within_a_window(monkeypatch):
    # 30 blocks of 7 at two workers: the caller receives block i while at most
    # 2 x 2 later blocks are submitted.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    submitted = []
    real_submit = ProcessPoolExecutor.submit

    def counting(pool, fn, indices):
        submitted.append(indices)
        return real_submit(pool, fn, indices)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting)
    cfg = TrialConfig(d=2, trials=207, seed=47)
    starts = []
    for block in run_experiment("qepi", cfg, 2):
        starts.append(block.indices[0])
        assert len(submitted) - len(starts) <= 2 * 2
    assert starts == list(range(0, 207, 7))
    assert submitted == [range(start, min(start + 7, 207)) for start in starts]


def test_parallel_failure_names_its_trial_and_stops_the_pool(monkeypatch, tmp_path):
    # Block 1 of 30 fails in a worker. Its error reaches the caller named,
    # blocks beyond the window never run, and no worker outlives the run.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 7)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    real = harness._TRIAL_FNS["qepi"]

    def fails_in_block_one(cfg, indices):
        (tmp_path / f"block-{indices.start}").touch()
        if 10 in indices:
            raise ValidationError("planted")
        return real(cfg, indices)

    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", fails_in_block_one)
    cfg = TrialConfig(d=2, trials=210, seed=53)
    with pytest.raises(ValidationError) as err:
        list(run_experiment("qepi", cfg, parallel=2))
    key = (53, harness._STREAM_BASE["qepi"] + 10)
    assert str(err.value) == f"qepi trial 10, stream key {key}: planted"
    ran = {int(path.name.split("-")[1]) // 7 for path in tmp_path.iterdir()}
    assert 1 in ran and max(ran) <= 2 * 2, sorted(ran)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind, rank", _KINDS[:3], ids=["ginibre", "pure", "rank-k:1"])
@pytest.mark.parametrize("envs", [(2, 2), (2, 3), (1, 4)], ids=["env22", "env23", "env14"])
@pytest.mark.parametrize("d", [2, 3])
def test_theorem_blocks_match_one_index_route(monkeypatch, joined, d, envs, kind, rank):
    cfg = TrialConfig(d=d, d_e1=envs[0], d_e2=envs[1], state_kind=kind, rank=rank, trials=10, seed=43)
    alone = joined(harness._run_block("theorem", cfg, range(index, index + 1)) for index in range(cfg.trials))
    # Blocks of 3 and 7 put boundaries after trials 2, 5, 8 and after trial 6.
    for size in (3, 7):
        monkeypatch.setattr(harness, "_block_size", lambda *_, size=size: size)
        blocks = list(run_experiment("theorem", cfg))
        assert [len(block.taus) for block in blocks] == [size] * (10 // size) + [10 % size]
        assert joined(blocks) == alone
        assert repr(joined(blocks)) == repr(alone)  # == does not tell -0.0 from 0.0


def test_theorem_blocks_parallel_matches_serial(monkeypatch, joined):
    # One block of 37 trials against two of 19 and 18, one per worker.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = TrialConfig(d=2, trials=37, seed=47)
    serial = list(run_experiment("theorem", cfg, parallel=1))
    parallel = list(run_experiment("theorem", cfg, parallel=2))
    assert [len(block.taus) for block in parallel] == [19, 18]
    assert joined(parallel) == joined(serial)
    assert summarize(serial) == summarize(parallel)


def test_trial_block_compares_and_shows_every_column():
    args = ("qepi", range(3, 5), [0.5, -0.0], (0.0,), {"s": [1.0, None]}, {"r": [0.0, 1e-12]}, {"r": [True, False]}, [0, 2])
    block = TrialBlock(*args)
    assert block.passed == [True, False]
    assert block == TrialBlock(*args) and block != TrialBlock(*args[:-1], [0, 3])
    assert repr(block) == (
        "TrialBlock(experiment='qepi', indices=range(3, 5), taus=[0.5, -0.0], kappas=(0.0,), "
        "slacks={'s': [1.0, None]}, residuals={'r': [0.0, 1e-12]}, pass_flags={'r': [True, False]}, "
        "negligible=[0, 2])"
    )
    with pytest.raises(TypeError):
        hash(block)


def test_trial_blocks_cross_the_pool_unchanged(monkeypatch):
    # The blocks are cut alike at --parallel 1 and 2, so each block that a
    # worker sent back equals, with its repr, the one computed here.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = TrialConfig(d=2, trials=2 * harness._BLOCK_SIZE["qepi"] + 1, seed=39)
    serial = list(run_experiment("qepi", cfg, parallel=1))
    parallel = list(run_experiment("qepi", cfg, parallel=2))
    assert len(parallel) == 3
    assert parallel == serial
    assert repr(parallel) == repr(serial)


_LEMMA_DIMS = [(2, 2, 2), (3, 3, 3), (6, 4, 4)]


@pytest.mark.parametrize("tau", _TAUS[:3], ids=["random", "0", "1"])
@pytest.mark.parametrize("kind, rank", _KINDS[:3], ids=["ginibre", "pure", "rank-k:1"])
@pytest.mark.parametrize("dims", _LEMMA_DIMS, ids=["d2e22", "d3e33", "d6e44"])
def test_lemma_blocks_match_one_trial_oracle(monkeypatch, joined, lemma_trial, dims, kind, rank, tau):
    d, e1, e2 = dims
    cfg = TrialConfig(d=d, d_e1=e1, d_e2=e2, state_kind=kind, rank=rank, tau=tau, trials=10, seed=67)
    expected = joined(lemma_trial(cfg, index) for index in range(cfg.trials))
    # One block of 10, then blocks of 4 with boundaries after trials 3 and 7.
    whole = list(run_experiment("lemma", cfg))
    monkeypatch.setattr(harness, "_block_size", lambda *_: 4)
    cut = list(run_experiment("lemma", cfg))
    assert [len(block.taus) for block in whole + cut] == [10, 4, 4, 2]
    for blocks in (whole, cut):
        assert joined(blocks) == expected
        assert repr(joined(blocks)) == repr(expected)  # == does not tell -0.0 from 0.0


def test_lemma_blocks_skip_the_negligible_outcomes_the_oracle_skips(monkeypatch, joined, lemma_trial, zero):
    # In even trials environment 1 sits in |0><0| and is measured in the
    # computational basis, so its outcome 1 has probability exactly 0: the
    # outcome pairs that use it are skipped. The block route gets the planted
    # setting through the stacked draw, the oracle through the one-trial draw.
    cfg = TrialConfig(d=3, d_e1=2, d_e2=3, trials=10, seed=71)

    def planted(index):
        return tensor(sample_state(RandomSource(index).generator(), cfg.d), zero)

    real_setting, real_settings = oracles._bilocal_setting, harness._theorem_settings

    def planted_setting(cfg, gen, index):
        tau, s1, s2, m1, m2 = real_setting(cfg, gen, index)
        if index % 2:
            return tau, s1, s2, m1, m2
        return tau, multipartite(planted(index), (cfg.d, 2)), s2, projective_from_unitary(np.eye(2)), m2

    def planted_settings(cfg, experiment, indices):
        taus, rho1, rho2, u1, u2 = real_settings(cfg, experiment, indices)
        for row, index in enumerate(indices):
            if not index % 2:
                rho1[row], u1[row] = planted(index).mat, np.eye(2)
        return taus, rho1, rho2, u1, u2

    monkeypatch.setattr(oracles, "_bilocal_setting", planted_setting)
    expected = joined(lemma_trial(cfg, index) for index in range(cfg.trials))
    assert expected.negligible == [3, 0] * 5
    monkeypatch.setattr(harness, "_theorem_settings", planted_settings)
    monkeypatch.setattr(harness, "_block_size", lambda *_: 4)
    blocks = joined(run_experiment("lemma", cfg))
    assert blocks == expected
    assert repr(blocks) == repr(expected)


_CONJECTURE_CONFIGS = [
    ((2, 1, 1), "ginibre", None),
    ((3, 1, 2), "ginibre", None),
    ((2, 2, 2), "ginibre", None),
    ((3, 2, 3), "pure", None),
    ((2, 3, 2), "rank-k", 2),
]


@pytest.mark.parametrize("tau", _TAUS[:3], ids=["random", "0", "1"])
@pytest.mark.parametrize(
    "dims, kind, rank", _CONJECTURE_CONFIGS, ids=["d2e11", "d3e12", "d2e22", "d3e23-pure", "d2e32-rank-k:2"]
)
def test_conjecture_blocks_match_one_trial_oracle(monkeypatch, joined, dims, kind, rank, tau):
    # The stacked block draws what each trial draws alone: the same taus, the
    # same candidates (a None where no perturbation is re-checked) and the
    # same pass flags, with every slack within 1e-13 of the one-trial route's
    # (dense channel, per-state validation). Its rows do not depend on the
    # block they run in.
    d, e1, e2 = dims
    cfg = TrialConfig(d=d, d_e1=e1, d_e2=e2, state_kind=kind, rank=rank, tau=tau, trials=32, seed=73)
    expected = joined(oracles._conjecture_trial(cfg, index) for index in range(cfg.trials))
    whole = list(run_experiment("conjecture", cfg))
    monkeypatch.setattr(harness, "_block_size", lambda *_: 5)
    cut = list(run_experiment("conjecture", cfg))
    assert [len(block.taus) for block in whole + cut] == [32] + [5] * 6 + [2]
    got = joined(whole)
    assert joined(cut) == got
    assert repr(joined(cut)) == repr(got)  # == does not tell -0.0 from 0.0
    assert (got.indices, got.taus, got.pass_flags, got.negligible) == (
        expected.indices,
        expected.taus,
        expected.pass_flags,
        expected.negligible,
    )
    assert list(got.slacks) == list(expected.slacks)
    for key, column in expected.slacks.items():
        assert [v is None for v in got.slacks[key]] == [v is None for v in column], key
        assert max((abs(a - b) for a, b in zip(got.slacks[key], column) if b is not None), default=0.0) <= 1e-13, key
    if e1 > 1 and tau is None:
        # Both control-arm offsets run: after a re-checked candidate's bump, and without one.
        assert 0 < sum(value is not None for value in expected.slacks["conjecture_perturbed"]) < cfg.trials


def _failing_haar_check(rows, ndim, calls=None):
    """rand._haar_checked failing the flattened `rows` of every stack of
    `ndim` axes, with garbage unitaries there; other stacks, haar_unitary's
    one-matrix draws among them, are checked as they are."""
    real = rand._haar_checked

    def checked(g):
        u, ok = real(g)
        if g.ndim != ndim:
            return u, ok
        if calls is not None:
            calls.append(ok.shape)
        u, ok = u.copy(), ok.copy()
        u.reshape(-1, *u.shape[-2:])[rows] = np.nan  # a failing row is garbage
        ok.reshape(-1)[rows] = False
        return u, ok

    return checked


@pytest.mark.parametrize("ndim", [3, 5], ids=["setting", "restart"])
def test_theorem_haar_check_failure_redraws_by_the_scalar_route(monkeypatch, joined, ndim):
    # Fails one row of the batched Haar check: of trial 5's bases, on the
    # settings' (N, e, e) stacks, or of one climb's restart, on the climb's
    # (N, K, R - 1, e, e) stacks. The scalar route redraws it from the start
    # of its stream; its first draw passes, so every value stays the same.
    # Redrawing the row's later draws (the second basis, the steps) is part
    # of it.
    cfg = TrialConfig(d=2, d_e1=2, d_e2=3, trials=12, seed=59)
    expected = joined(run_experiment("theorem", cfg))
    calls = []
    monkeypatch.setattr(rand, "_haar_checked", _failing_haar_check([5], ndim, calls))
    redrawn = joined(run_experiment("theorem", cfg))
    assert calls
    assert redrawn == expected
    assert repr(redrawn) == repr(expected)


def test_lemma_haar_check_failure_redraws_from_the_lemma_stream(monkeypatch, joined):
    # Trial 5's stacked Haar draws fail their check; the scalar route redraws
    # its bases from the start of the trial's lemma stream, so nothing changes.
    cfg = TrialConfig(d=2, d_e1=2, d_e2=3, trials=12, seed=59)
    expected = joined(run_experiment("lemma", cfg))
    monkeypatch.setattr(rand, "_haar_checked", _failing_haar_check([5], 3))
    redrawn = joined(run_experiment("lemma", cfg))
    assert redrawn == expected
    assert repr(redrawn) == repr(expected)


@pytest.mark.parametrize("kind, rank", _KINDS[1:], ids=["pure", "rank-k:1", "rank-k:2"])
@pytest.mark.parametrize("experiment", ["lemma", "theorem"])
def test_haar_check_failure_replays_pure_and_rank_k_settings(monkeypatch, joined, experiment, kind, rank):
    # Rows 0 and 5 of the settings' stacked Haar draws fail their check.
    # Their replay skips the two states' Gaussians, whose count depends on
    # the state kind, and redraws both bases, so every value stays the same.
    cfg = TrialConfig(d=2, d_e1=2, d_e2=3, state_kind=kind, rank=rank, trials=12, seed=59)
    expected = joined(run_experiment(experiment, cfg))
    calls = []
    monkeypatch.setattr(rand, "_haar_checked", _failing_haar_check([0, 5], 3, calls))
    redrawn = joined(run_experiment(experiment, cfg))
    assert calls == [(12,), (12,)]
    assert redrawn == expected
    assert repr(redrawn) == repr(expected)


def _assert_theorem_failure_names_its_trial(monkeypatch, step, message):
    # A stacked step fails on a stack holding trial 9's first input state.
    # The block is rerun trial by trial to name the trial.
    cfg = TrialConfig(d=2, trials=20, seed=53)
    target = 9  # inside the one block of 20
    _, s1, *_ = _bilocal_setting(cfg, trial_source(cfg, "theorem", target).generator(), target)
    real = getattr(harness, step)

    def fails_on_target(*args):
        result = real(*args)
        # The state stack is the first output of one step and the first input of the other.
        for stack in (result[0], args[0]):
            if any(np.array_equal(m.reshape(-1), s1.state.mat.reshape(-1)) for m in stack):
                raise ValidationError(message)
        return result

    monkeypatch.setattr(harness, step, fails_on_target)
    with pytest.raises(ValidationError) as err:
        list(run_experiment("theorem", cfg))
    key = (53, harness._STREAM_BASE["theorem"] + target)
    assert str(err.value) == f"theorem trial {target}, stream key {key}: {message}"
    assert isinstance(err.value.__cause__, ValidationError)


def test_theorem_failure_mid_block_names_its_trial(monkeypatch):
    # The validated conditioning after the lockstep climb fails.
    _assert_theorem_failure_names_its_trial(monkeypatch, "condition_all_stack", "outcome probabilities sum to 1.5")


def test_theorem_setting_failure_mid_block_names_its_trial(monkeypatch):
    # The stacked validation of the block's drawn settings fails.
    _assert_theorem_failure_names_its_trial(
        monkeypatch, "states_from_gaussians", "smallest eigenvalue -1.0e-03 below -tol 1.0e-10"
    )


def test_theorem_checks_completeness_of_the_found_bases(monkeypatch):
    real = harness.climb_product_basis

    def off_unitary(*args):
        values, found = real(*args)
        return values, [1.001 * u for u in found]

    monkeypatch.setattr(harness, "climb_product_basis", off_unitary)
    with pytest.raises(ValidationError, match=r"^theorem trial 0, .*: max\|U†U - I\| = 2\.001e-03 \(> 1\.0e-10\)$"):
        list(run_experiment("theorem", TrialConfig(d=2, trials=3, seed=61)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d=st.integers(2, 4),
    envs=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    taus=st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2),
    fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_stacked_slack_objective_matches_validated_slack(conditioned_pieces, seed, d, envs, taus, fractions):
    # Two settings x two kappas in the window x three random product bases,
    # scored in one stacked call: each value equals the one-climb evaluation
    # bit for bit and the slack from validated conditioning to 1e-12.
    e1, e2 = envs
    kappas = [f * kappa_bounds(d) for f in fractions]
    gen = RandomSource(seed).generator()
    settings_ = []
    for tau in taus:
        s1 = multipartite(sample_state(gen, d * e1), (d, e1))
        s2 = multipartite(sample_state(gen, d * e2), (d, e2))
        settings_.append((tau, s1, s2, _bilocal_channel(s1, s2, tau)))
    bases = [np.array([[[haar_unitary(e, gen) for _ in range(3)] for _ in kappas] for _ in taus]) for e in envs]
    stacked = _slack_objective(
        (d, e1, e2), *(np.stack([s[i].state.mat for s in settings_]) for i in (1, 2, 3)), taus, kappas
    )(bases)
    assert stacked.shape == (2, 2, 3)
    for b, (tau, s1, s2, joint) in enumerate(settings_):
        for k, kappa in enumerate(kappas):
            one = _slack_objective(
                (d, e1, e2), *(s.state.mat[None] for s in (s1, s2, joint)), [tau], [kappa]
            )
            for r in range(3):
                u1, u2 = bases[0][b, k, r], bases[1][b, k, r]
                assert stacked[b, k, r] == one([u1[None, None, None], u2[None, None, None]])[0, 0, 0]
                pair = projective_from_unitary(u1), projective_from_unitary(u2)
                *pieces, _ = conditioned_pieces(joint, s1, s2, *pair)
                assert stacked[b, k, r] == pytest.approx(_theorem_slack(tau, kappa, *pieces), abs=1e-12)
