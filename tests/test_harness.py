import bisect
import concurrent.futures
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qudit_epi import conditional, harness
from qudit_epi.cli import dispatch
from qudit_epi.conditional import _slack_objective
from qudit_epi.entropy import climb_product_basis
from qudit_epi.errors import QuditEpiError, UsageError, ValidationError
from qudit_epi.harness import (
    EXPERIMENTS,
    Summary,
    TrialBlock,
    TrialConfig,
    run_experiment,
    summarize,
    validate_config,
)
from qudit_epi.rand import haar_unitary

from oracles import (
    RandomSource,
    _bilocal_channel,
    _bilocal_setting,
    _theorem_slack,
    multipartite,
    projective_from_unitary,
    sample_state,
    tensor,
    trial_source,
)


def _one(experiment, cfg, index):
    """Trial `index` of `experiment` alone, as a block of one row."""
    return harness._run_block(experiment, cfg, range(index, index + 1))


def test_trials_replay_exactly():
    cfg = TrialConfig(d=3, d_e1=2, d_e2=2, trials=5, seed=11)
    for experiment in EXPERIMENTS:
        assert _one(experiment, cfg, 3) == _one(experiment, cfg, 3), experiment


def test_forced_tau_endpoints():
    cfg = TrialConfig(d=2, trials=5, seed=1)
    taus = [_one("qepi", cfg, i).taus[0] for i in range(5)]
    assert taus[:3] == [0.0, 0.5, 1.0]
    assert all(0.0 <= t <= 1.0 for t in taus)


def test_fixed_tau_respected():
    cfg = TrialConfig(d=2, tau=0.25, trials=3, seed=1)
    assert all(_one("qepi", cfg, i).taus == [0.25] for i in range(3))
    # A library caller's integer tau is a float in every trial, as a line
    # writes it ("tau":0.0), and as cli.render_block can render it.
    cfg = TrialConfig(d=2, tau=0, trials=3, seed=1)
    for experiment in EXPERIMENTS:
        assert repr(_one(experiment, cfg, 1).taus[0]) == "0.0", experiment


def test_lemma_trial_checks():
    cfg = TrialConfig(d=3, d_e1=2, d_e2=3, trials=1, seed=5)
    for i in range(20):
        r = _one("lemma", cfg, i)
        assert r.passed == [True], r
        assert r.residuals["lemma_identity"][0] <= 1e-10
        assert r.slacks["lemma_majorization"][0] >= -1e-9
        assert r.residuals["factorization"][0] <= 1e-9
        assert r.residuals["prob_norm"][0] <= 1e-9


def test_lemma_counts_negligible_outcomes(monkeypatch, capsys, zero, parse_jsonl):
    # Environment 1 sits in |0><0| and is measured in the computational basis,
    # so its outcome 1 has probability exactly 0: both grid pairs that use it
    # are skipped and counted as negligible.
    real = conditional._theorem_settings

    def planted(cfg, experiment, indices):
        taus, _, rho2, _, u2 = real(cfg, experiment, indices)
        rho1 = np.stack([tensor(sample_state(RandomSource(index).generator(), cfg.d), zero).mat for index in indices])
        return taus, rho1, rho2, np.stack([np.eye(2, dtype=complex)] * len(indices)), u2

    monkeypatch.setattr(conditional, "_theorem_settings", planted)
    r = _one("lemma", TrialConfig(d=2, trials=1, seed=5), 3)
    assert r.passed == [True], r
    assert r.negligible == [2]
    assert math.isfinite(r.slacks["lemma_majorization"][0])
    assert dispatch(["verify-lemma", "--dim", "2", "--trials", "2", "--seed", "5", "--parallel", "1"]) == 0
    trials = [line for line in parse_jsonl(capsys.readouterr().out) if line["type"] == "trial"]
    assert [line["negligible_outcomes"] for line in trials] == [2, 2]


def test_theorem_trial_kappa_zero_slack_is_zero():
    cfg = TrialConfig(d=2, trials=1, seed=6)
    for i in range(20):
        r = _one("theorem", cfg, i)
        assert abs(r.slacks["theorem_measured.k0"][0]) <= 1e-12
        assert r.passed == [True]


def _one_setting_objective(joint, s1, s2, tau, kappa):
    """The stacked slack objective of one setting at one kappa: it maps factor
    stacks of shape (1, 1, R, e, e) to the (1, 1, R) slacks."""
    mats = (s.state.mat[None] for s in (s1, s2, joint))
    return _slack_objective(joint.dims[0], *mats, [tau], [kappa])


_SEARCHED = [(2, (2, 2)), (3, (2, 2)), (2, (2, 3)), (3, (2, 3)), (2, (1, 4)), (3, (1, 4))]
# Grids of 8 or more outcomes, where numpy's pairwise sums stop being sequential.
_SEARCHED += [(2, (3, 3)), (2, (2, 4)), (2, (4, 4))]


@pytest.mark.parametrize("d, envs", _SEARCHED, ids=[f"env{e1}{e2}-{d}" for d, (e1, e2) in _SEARCHED])
def test_theorem_search_is_validated_and_never_above_haar(conditioned_pieces, d, envs):
    # Replays each trial's search alone: the recorded slack is, bit for bit,
    # the validated scalar slack at the basis the climb returns (at the Haar
    # pair for kappa = 0), it equals the climb's own (stacked) value, and it is
    # never above the slack at the trial's Haar pair. prob_norm and the
    # negligible count are the scalar route's too.
    cfg = TrialConfig(d=d, d_e1=envs[0], d_e2=envs[1], seed=16)
    for index in range(20):
        block = _one("theorem", cfg, index)
        slacks = {key: column[0] for key, column in block.slacks.items()}
        source = trial_source(cfg, "theorem", index)
        tau, s1, s2, m1, m2 = _bilocal_setting(cfg, source.generator(), index)
        joint = _bilocal_channel(s1, s2, tau)
        *haar, prob_norm = conditioned_pieces(joint, s1, s2, m1, m2)
        assert block.negligible == [sum(o.negligible for row in haar[2] for o in row)]
        for t, kappa in enumerate(block.kappas):
            key = f"theorem_measured.k{t}"
            assert slacks[key] <= _theorem_slack(tau, kappa, *haar) + 1e-12, (index, key)
            if kappa == 0.0:
                assert slacks[key] == _theorem_slack(tau, kappa, *haar)
                continue
            value, (u1, u2) = climb_product_basis(
                _one_setting_objective(joint, s1, s2, tau, kappa),
                [m1.basis[None, None], m2.basis[None, None]],
                cfg.seed,
                np.array([[source.derive(t).stream_index]], dtype=np.uint64),
            )
            pair = projective_from_unitary(u1[0, 0]), projective_from_unitary(u2[0, 0])
            *found, norm = conditioned_pieces(joint, s1, s2, *pair)
            prob_norm = max(prob_norm, norm)
            assert slacks[key] == _theorem_slack(tau, kappa, *found)
            assert float(value[0, 0]) == pytest.approx(slacks[key], abs=1e-12), (index, key)
        assert block.residuals["prob_norm"] == [prob_norm]


def test_theorem_search_on_product_inputs_keeps_start_value():
    # (X1 (x) E1, X2 (x) E2): every basis pair conditions on the same states,
    # so the slack does not depend on the pair and the climb returns its start
    # value up to round-off.
    gen = RandomSource(17).generator()
    s1, s2 = (
        multipartite(tensor(sample_state(gen, 2), sample_state(gen, e)), (2, e)) for e in (2, 3)
    )
    joint = _bilocal_channel(s1, s2, 0.4)
    start = [haar_unitary(2, gen)[None, None], haar_unitary(3, gen)[None, None]]
    for kappa in (0.5, 1.0, 2.0):
        objective = _one_setting_objective(joint, s1, s2, 0.4, kappa)
        value, _ = climb_product_basis(objective, start, 18, np.zeros((1, 1), dtype=np.uint64))
        at_start = objective([u[:, :, None] for u in start])[0, 0, 0]
        assert at_start - 1e-12 <= value[0, 0] <= at_start


def test_qepi_trial_worked_example_reachable():
    cfg = TrialConfig(d=2, trials=1, seed=8)
    for i in range(20):
        r = _one("qepi", cfg, i)
        assert r.passed == [True]
        assert r.slacks["qepi_majorization"][0] >= -1e-9


def test_concavity_trial():
    cfg = TrialConfig(d=4, trials=1, seed=9)
    for i in range(20):
        r = _one("concavity", cfg, i)
        assert r.passed == [True]
        assert all(column[0] >= -1e-9 for column in r.slacks.values())


def test_conjecture_trivial_env_never_violates():
    cfg = TrialConfig(d=2, d_e1=1, d_e2=1, trials=1, seed=10)
    for i in range(30):
        r = _one("conjecture", cfg, i)
        assert r.passed == [True]
        assert r.slacks["conjecture"][0] >= -1e-9
        assert r.slacks["conjecture_perturbed"] == [None]


def test_conjecture_entangled_env_candidates_are_reverified():
    # At --tol 1e-300 a slack below 0 by round-off is a candidate; its flag
    # fails exactly when the perturbed slack stays below the threshold.
    cfg = TrialConfig(d=2, d_e1=2, d_e2=2, trials=1, seed=10, tolerance=1e-300)
    seen_candidate = False
    for i in range(30):
        r = _one("conjecture", cfg, i)
        (perturbed,) = r.slacks["conjecture_perturbed"]
        if perturbed is not None:
            seen_candidate = True
            assert r.slacks["conjecture"][0] < -10 * cfg.tolerance
            assert r.pass_flags["reverified_candidate"] == [perturbed >= -10 * cfg.tolerance]
        else:
            assert r.slacks["conjecture"][0] >= -10 * cfg.tolerance
    assert seen_candidate


def test_exploratory_kappa_is_diagnostic_only():
    cfg = TrialConfig(d=2, kappa=3.0, exploratory_kappa=True, trials=1, seed=12)
    r = _one("concavity", cfg, 5)
    assert r.slacks["concavity.k0"][0] is not None
    assert "concavity.k0" not in r.pass_flags
    assert harness._kappa_grid(cfg, "concavity") == ((3.0,), ["concavity.k0"], {"concavity.k0"})


def _kappa_keys(prefix):
    return {f"{prefix}.k{t}" for t in range(3)}


_LEMMA_KEYS = {"lemma_majorization", "lemma_identity", "major_total", "factorization", "prob_norm"}
_EXPLORATORY = {"kappa": 3.0, "exploratory_kappa": True}


@pytest.mark.parametrize(
    "experiment, cfg, expected",
    [
        ("lemma", TrialConfig(d=2, d_e1=2, d_e2=3), _LEMMA_KEYS),
        ("theorem", TrialConfig(d=2), {"prob_norm"} | _kappa_keys("theorem_measured")),
        ("qepi", TrialConfig(d=3), {"qepi_majorization", "major_total"} | _kappa_keys("qepi")),
        ("concavity", TrialConfig(d=4), _kappa_keys("concavity")),
        ("conjecture", TrialConfig(d=2, d_e1=2), {"reverified_candidate"}),
        ("conjecture", TrialConfig(d=2, d_e1=1, d_e2=1), {"reverified_candidate", "conjecture"}),
        ("conjecture", TrialConfig(d=2, d_e1=1, d_e2=2), {"reverified_candidate"}),
        ("theorem", TrialConfig(d=2, **_EXPLORATORY), {"prob_norm"}),
        ("qepi", TrialConfig(d=2, **_EXPLORATORY), {"qepi_majorization", "major_total"}),
        ("concavity", TrialConfig(d=2, **_EXPLORATORY), set()),
    ],
    ids=[
        "lemma",
        "theorem",
        "qepi",
        "concavity",
        "conjecture-env2",
        "conjecture-env1",
        "conjecture-env12",
        "theorem-exploratory",
        "qepi-exploratory",
        "concavity-exploratory",
    ],
)
def test_hard_check_key_sets(experiment, cfg, expected):
    # Exactly these checks decide a trial's verdict; every other slack is a diagnostic.
    for i in range(5):
        assert set(_one(experiment, cfg, i).pass_flags) == expected, i


def test_verdict_flags():
    # Flag columns of the slacks come first, then those of the residuals; a
    # soft slack gets none, and only a soft slack may hold None; a value on
    # the tolerance passes and a NaN fails.
    tol = 1e-9
    slacks = {"s.hard": [-tol, 0.0], "s.soft": [-1.0, None], "s.nan": [math.nan, 0.0], "s.low": [-2 * tol, 1.0]}
    residuals = {"r.edge": [tol, 0.0], "r.nan": [math.nan, 0.0], "r.high": [2 * tol, -1.0]}
    flags = harness._verdict(TrialConfig(tolerance=tol), slacks, residuals, {"s.soft"})
    assert list(flags.items()) == [
        ("s.hard", [True, True]),
        ("s.nan", [False, True]),
        ("s.low", [False, True]),
        ("r.edge", [True, True]),
        ("r.nan", [False, True]),
        ("r.high", [False, True]),
    ]


@pytest.mark.parametrize("tol", [1e-9, 0.5, 5e-324])
def test_verdict_gives_pythons_comparisons_at_the_float_edges(tol):
    # Each flag is the bool that Python's float comparison gives: a NaN fails
    # a slack and a residual, the infinities order as floats, -0.0 equals 0.0,
    # and a value one ulp beyond the tolerance fails.
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, -tol, tol]
    values += [math.nextafter(-tol, -math.inf), math.nextafter(tol, math.inf)]
    flags = harness._verdict(TrialConfig(tolerance=tol), {"s": values}, {"r": values})
    assert flags == {"s": [v >= -tol for v in values], "r": [v <= tol for v in values]}
    assert {type(flag) for column in flags.values() for flag in column} == {bool}
    assert flags["s"][:5] == [False, True, False, True, True]
    assert flags["r"][:5] == [False, False, True, True, True]


def _recorded_verdicts(monkeypatch) -> list:
    """The (slacks, residuals, soft) of each _verdict call from now on."""
    calls = []
    real = harness._verdict

    def recording(cfg, slacks, residuals, soft=frozenset()):
        calls.append((slacks, residuals, soft))
        return real(cfg, slacks, residuals, soft)

    monkeypatch.setattr(harness, "_verdict", recording)
    return calls


def _flagged_columns(calls) -> list:
    """The columns that the recorded _verdict calls flag: hard slacks and residuals."""
    return [
        column
        for slacks, residuals, soft in calls
        for column in [*(c for key, c in slacks.items() if key not in soft), *residuals.values()]
    ]


@pytest.mark.parametrize(
    "experiment, cfg",
    [
        ("lemma", TrialConfig(d=2, d_e1=2, d_e2=3, trials=12, seed=3)),
        ("theorem", TrialConfig(d=2, trials=6, seed=3)),
        ("qepi", TrialConfig(d=3, trials=40, seed=3)),
        ("concavity", TrialConfig(d=4, trials=40, seed=3)),
        ("conjecture", TrialConfig(d=2, d_e1=1, trials=40, seed=3)),
        ("conjecture", TrialConfig(d=2, d_e1=2, trials=40, seed=3, tolerance=1e-300)),
    ],
    ids=["lemma", "theorem", "qepi", "concavity", "conjecture-env1", "conjecture-env2"],
)
def test_only_soft_slack_columns_hold_none(monkeypatch, experiment, cfg):
    # _verdict compares whole columns, so no column that it flags may hold a
    # hole; the conjecture's perturbed slack, soft in every configuration, is
    # the one column that does. At --tol 1e-300 some round-off slacks are
    # candidates, so the conjecture-env2 column holds values and holes.
    calls = _recorded_verdicts(monkeypatch)
    blocks = list(run_experiment(experiment, cfg))
    assert len(calls) == len(blocks)
    assert not any(None in column for column in _flagged_columns(calls))
    for block in blocks:
        assert not any(None in column for column in block.pass_flags.values())
        assert [key for key, column in block.slacks.items() if None in column] in ([], ["conjecture_perturbed"])
    if experiment == "conjecture":
        perturbed = [value for block in blocks for value in block.slacks["conjecture_perturbed"]]
        assert None in perturbed
        assert any(value is not None for value in perturbed) == (cfg.d_e1 == 2)


@pytest.mark.parametrize("experiment", ["lemma", "theorem"])
def test_negligible_outcomes_leave_no_hole_in_a_flagged_column(monkeypatch, zero, experiment):
    # Environment 1 sits in |0><0| and the Haar pair's first basis is the
    # computational one, so outcome 1 of the first environment is negligible.
    real = conditional._theorem_settings

    def planted(cfg, experiment, indices):
        taus, _, rho2, _, u2 = real(cfg, experiment, indices)
        rho1 = np.stack([tensor(sample_state(RandomSource(index).generator(), cfg.d), zero).mat for index in indices])
        return taus, rho1, rho2, np.stack([np.eye(2, dtype=complex)] * len(indices)), u2

    monkeypatch.setattr(conditional, "_theorem_settings", planted)
    calls = _recorded_verdicts(monkeypatch)
    (block,) = run_experiment(experiment, TrialConfig(d=2, trials=3, seed=5))
    assert all(block.negligible)
    flagged = _flagged_columns(calls)
    assert flagged and not any(None in column for column in flagged)
    assert not any(None in column for column in [*block.slacks.values(), *block.residuals.values()])


def test_validate_config_rejects_out_of_envelope():
    with pytest.raises(UsageError):
        validate_config(TrialConfig(d=7), "qepi")
    with pytest.raises(UsageError):
        validate_config(TrialConfig(d=2, d_e1=5), "lemma")
    with pytest.raises(UsageError):
        validate_config(TrialConfig(d=2, trials=0), "qepi")
    with pytest.raises(UsageError):
        validate_config(TrialConfig(d=2, kappa=5.0), "qepi")
    validate_config(TrialConfig(d=2, kappa=5.0, exploratory_kappa=True), "qepi")
    validate_config(TrialConfig(d=6, d_e1=4, d_e2=4, trials=1), "conjecture")
    # rank-k:K above the smallest state dimension each experiment samples
    for cfg, experiment in [
        (TrialConfig(d=2, state_kind="rank-k", rank=3), "qepi"),
        (TrialConfig(d=2, state_kind="rank-k", rank=5), "lemma"),
        (TrialConfig(d=2, state_kind="rank-k", rank=9), "lemma"),
        (TrialConfig(d=3, d_e1=1, state_kind="rank-k", rank=4), "theorem"),
        (TrialConfig(d=2, d_e1=1, state_kind="rank-k", rank=3), "conjecture"),
        (TrialConfig(d=2, d_e1=2, d_e2=1, state_kind="rank-k", rank=3), "conjecture"),
        # non-finite kappa or tolerance
        (TrialConfig(d=2, kappa=float("nan")), "qepi"),
        (TrialConfig(d=2, kappa=float("inf"), exploratory_kappa=True), "qepi"),
        (TrialConfig(d=2, kappa=float("nan"), exploratory_kappa=True), "concavity"),
        (TrialConfig(d=2, tolerance=float("inf")), "qepi"),
        (TrialConfig(d=2, tolerance=float("nan")), "lemma"),
        # seeds outside [0, 2^64) would alias one inside it
        (TrialConfig(d=2, seed=-1), "qepi"),
        (TrialConfig(d=2, seed=2**64), "qepi"),
        (TrialConfig(d=2, seed=2**70 + 5), "lemma"),
        # d^kappa, the largest entropy power, overflows a float
        (TrialConfig(d=3, kappa=1000.0, exploratory_kappa=True), "qepi"),
        (TrialConfig(d=3, kappa=1000.0, exploratory_kappa=True), "concavity"),
        (TrialConfig(d=2, kappa=1024.0, exploratory_kappa=True), "theorem"),
    ]:
        with pytest.raises(UsageError):
            validate_config(cfg, experiment)
    validate_config(TrialConfig(d=2, state_kind="rank-k", rank=2), "qepi")
    validate_config(TrialConfig(d=2, state_kind="rank-k", rank=4), "lemma")
    validate_config(TrialConfig(d=2, d_e1=2, d_e2=2, state_kind="rank-k", rank=4), "conjecture")
    validate_config(TrialConfig(d=2, state_kind="rank-k", rank=9), "concavity")
    validate_config(TrialConfig(d=2, seed=0), "qepi")
    validate_config(TrialConfig(d=2, seed=2**64 - 1), "qepi")
    validate_config(TrialConfig(d=3, kappa=600.0, exploratory_kappa=True), "concavity")


def _never_called(cfg, indices):
    raise AssertionError("a trial ran before the configuration was rejected")


# (experiment, TrialConfig fields, parallel, the field the error names)
_NOT_INTEGERS = [
    ("qepi", {"trials": 2.5}, 1, "trials"),
    ("qepi", {"d": 2.0}, 1, "d"),
    ("qepi", {"seed": 1.5}, 1, "seed"),
    ("lemma", {"d_e1": 2.0}, 1, "d_e1"),
    ("theorem", {"d_e2": 2.0}, 1, "d_e2"),
    ("qepi", {"state_kind": "rank-k", "rank": 1.0}, 1, "rank"),
    ("qepi", {"trials": True}, 1, "trials"),
    ("concavity", {"d": np.float64(3)}, 1, "d"),
    ("qepi", {}, 2.9, "parallel"),
    ("qepi", {}, True, "parallel"),
]


@pytest.mark.parametrize(
    "experiment, fields, parallel, name",
    _NOT_INTEGERS,
    ids=[f"{name}-{type(fields.get(name, parallel)).__name__}" for _, fields, parallel, name in _NOT_INTEGERS],
)
def test_non_integer_config_is_rejected_before_trial_zero(monkeypatch, experiment, fields, parallel, name):
    monkeypatch.setitem(harness._TRIAL_FNS, experiment, _never_called)
    cfg = TrialConfig(**{"trials": 4, **fields})
    with pytest.raises(UsageError, match=f"^{name} must be an integer, got "):
        list(run_experiment(experiment, cfg, parallel))


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)], ids=["int64", "uint64"])
def test_numpy_integer_seed_runs_the_trials_of_its_value(seed):
    # validate_config accepts any numbers.Integral seed, so a numpy integer
    # must key the streams of the int it equals in every experiment.
    for experiment in harness.EXPERIMENTS:
        blocks = list(run_experiment(experiment, TrialConfig(trials=4, seed=seed)))
        assert blocks == list(run_experiment(experiment, TrialConfig(trials=4, seed=5))), experiment


# (experiment, TrialConfig fields, the field the error names)
_MISTYPED = [
    ("qepi", {"state_kind": None}, "state_kind"),
    ("lemma", {"state_kind": 3}, "state_kind"),
    ("qepi", {"tau": "0.5"}, "tau"),
    ("theorem", {"tolerance": "1e-9"}, "tolerance"),
    ("concavity", {"tau": True}, "tau"),
    ("qepi", {"kappa": True}, "kappa"),
    ("qepi", {"kappa": None}, "kappa"),
    ("concavity", {"exploratory_kappa": "no"}, "exploratory_kappa"),
    ("lemma", {"rank": 2}, "rank"),
]


@pytest.mark.parametrize(
    "experiment, fields, name",
    _MISTYPED,
    ids=[f"{name}-{type(fields[name]).__name__}" for _, fields, name in _MISTYPED],
)
def test_mistyped_config_is_rejected_before_trial_zero(monkeypatch, experiment, fields, name):
    # A library caller's config of the wrong type neither crashes in a check
    # nor runs: a string or None where a number or a state kind belongs, a
    # bool that would run as 0 or 1 but be written as true, a truthy string
    # for a flag, and a rank the ginibre sampler would ignore.
    monkeypatch.setitem(harness._TRIAL_FNS, experiment, _never_called)
    cfg = TrialConfig(**{"trials": 4, **fields})
    with pytest.raises(UsageError, match=f"^{name} must be "):
        list(run_experiment(experiment, cfg))


def test_numpy_integer_config_runs_as_int(joined):
    cfg = TrialConfig(d=2, trials=5, seed=3)
    as_numpy = TrialConfig(d=np.int64(2), d_e1=np.int32(2), trials=np.int64(5), seed=np.uint64(3))
    for experiment in ("qepi", "lemma"):
        expected = joined(run_experiment(experiment, cfg))
        assert joined(run_experiment(experiment, as_numpy, np.int64(1))) == expected, experiment


def test_validate_config_total_dim_cap_is_inclusive():
    # The dimension caps are inclusive: d=6 with both environments at 4 runs.
    validate_config(TrialConfig(d=6, d_e1=4, d_e2=4, trials=1), "lemma")


def test_run_experiment_parallel_matches_serial(monkeypatch, joined):
    # Blocks of 5: three blocks for the two workers to share.
    monkeypatch.setitem(harness._BLOCK_SIZE, "qepi", 5)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = TrialConfig(d=2, trials=12, seed=13)
    serial = list(run_experiment("qepi", cfg, parallel=1))
    parallel = list(run_experiment("qepi", cfg, parallel=2))
    assert joined(serial) == joined(parallel)
    assert len(joined(serial).taus) == 12
    sum1, sum2 = summarize(serial), summarize(parallel)
    assert sum1.min_slack == sum2.min_slack
    assert sum1.violations == sum2.violations
    for workers in (0, -1):
        with pytest.raises(UsageError, match=f"--parallel must be >= 1, got {workers}"):
            list(run_experiment("qepi", cfg, parallel=workers))


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its max_workers and runs
    each submitted call inline, so no process starts."""

    def __init__(self, max_workers, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


_POOL_CAPS = [
    # (experiment, trials, --parallel, usable CPUs, the pool's max_workers or None for no pool)
    ("lemma", 100, 4, 2, 2),  # the CPUs bind: 4 blocks of at most 32
    ("qepi", 1100, 5000, 64, 3),  # the blocks bind: 512 + 512 + 76
    ("theorem", 7, 3, 64, 3),  # blocks of 3
    ("lemma", 100, 4, 1, None),  # one CPU: no pool
    ("qepi", 300, 2, 2, None),  # one block: no pool
]


@pytest.mark.parametrize("experiment, trials, parallel, cpus, pool", _POOL_CAPS)
def test_pool_is_capped_at_the_usable_cpus_and_the_blocks(
    monkeypatch, joined, experiment, trials, parallel, cpus, pool
):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(_InlinePool, sizes=sizes))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    cfg = TrialConfig(d=2, trials=trials, seed=19)
    run = joined(run_experiment(experiment, cfg, parallel))
    assert sizes == ([] if pool is None else [pool])
    assert run == joined(run_experiment(experiment, cfg, 1))


def test_verify_qepi_at_parallel_5000_forks_no_more_than_the_cpus(monkeypatch, capsys):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(_InlinePool, sizes=sizes))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    argv = ["verify-qepi", "--dim", "2", "--trials", "20000", "--seed", "23"]
    assert dispatch([*argv, "--parallel", "5000"]) == 0
    wide = capsys.readouterr().out
    assert sizes == [2]
    assert dispatch([*argv, "--parallel", "1"]) == 0
    assert capsys.readouterr().out == wide


def test_trial_failure_names_experiment_index_and_stream_key(monkeypatch, capsys):
    real = harness._TRIAL_FNS["qepi"]

    def fails_at_three(cfg, indices):
        if 3 in indices:
            raise ValidationError("smallest eigenvalue -1.0e-03 below -tol 1.0e-10")
        return real(cfg, indices)

    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", fails_at_three)
    cfg = TrialConfig(d=2, trials=6, seed=21)
    with pytest.raises(ValidationError) as err:
        list(run_experiment("qepi", cfg, parallel=1))
    key = (21, harness._STREAM_BASE["qepi"] + 3)
    assert str(err.value) == f"qepi trial 3, stream key {key}: smallest eigenvalue -1.0e-03 below -tol 1.0e-10"
    assert isinstance(err.value.__cause__, ValidationError)
    assert dispatch(["verify-qepi", "--dim", "2", "--trials", "6", "--seed", "21", "--parallel", "1"]) == 1
    assert f"error: qepi trial 3, stream key {key}: smallest eigenvalue" in capsys.readouterr().err


def _reversed(block):
    """`block` with its rows in reverse order."""

    def flipped(columns):
        return {key: column[::-1] for key, column in columns.items()}

    return TrialBlock(
        block.experiment,
        block.indices[::-1],
        block.taus[::-1],
        block.kappas,
        flipped(block.slacks),
        flipped(block.residuals),
        flipped(block.pass_flags),
        block.negligible[::-1],
    )


def test_summarize_order_independent():
    cfg = TrialConfig(d=2, trials=6, seed=14)
    (block,) = run_experiment("concavity", cfg, parallel=1)
    a = summarize([block])
    b = summarize([_reversed(block)])
    assert a.min_slack == b.min_slack
    assert a.histogram == b.histogram
    assert a.trials == b.trials


def _block(start, slacks, residuals):
    """A qepi block of rows start, start + 1, ... with the given slack and
    residual columns (None where a row lacks the key) and no pass flags."""
    n = len(next(iter(slacks.values())))
    return TrialBlock("qepi", range(start, start + n), [0.5] * n, (), slacks, residuals, {}, [0] * n)


@pytest.mark.parametrize(
    "worst, bin_index",
    [
        (-math.inf, 0),
        (-1e-3, 1),
        (-1e-6, 2),
        (-1e-9, 3),
        (-1.1e-16, 3),
        (-0.0, 3),
        (0.0, 3),
        (1.1e-16, 3),
        (1e-9, 4),
        (1e-6, 5),
        (1e-3, 6),
        (math.inf, 6),
        (math.nan, 6),
    ],
)
def test_summarize_histogram_bins(worst, bin_index):
    # A row falls in the bin of its worst slack, to the right of an edge it
    # lies on. No edge sits at 0, so a slack that is 0 up to its last bit
    # falls in one bin. A NaN slack is the worst, in either key order, and
    # falls in the last bin. A row without slacks falls in none.
    other = -1.0 if math.isnan(worst) else math.inf
    for slacks in ({"a": worst, "b": other}, {"a": other, "b": worst}, {"a": worst}):
        block = _block(0, {key: [value, None] for key, value in slacks.items()}, {})
        counts = summarize([block]).histogram["counts"]
        assert counts == [int(i == bin_index) for i in range(7)], slacks


def test_summarize_nan_is_sticky_in_either_order():
    # A NaN slack or residual is the fold's min_slack or max_residual,
    # whichever row comes first, in one block or in two.
    nan_row, low_row = (math.nan, math.nan), (-1.0, 1.0)
    for rows in ([nan_row, low_row], [low_row, nan_row]):
        (a0, r0), (a1, r1) = rows
        one = [_block(0, {"a": [a0, a1]}, {"r": [r0, r1]})]
        two = [_block(0, {"a": [a0]}, {"r": [r0]}), _block(1, {"a": [a1]}, {"r": [r1]})]
        for blocks in (one, two):
            summary = summarize(iter(blocks))
            assert math.isnan(summary.min_slack["a"]) and math.isnan(summary.max_residual)
            assert summary.trials == 2
            assert summary.histogram["counts"] == [1, 0, 0, 0, 0, 0, 1]
    assert summarize([_block(0, {"a": [-1.0]}, {"r": [1.0]})]).min_slack == {"a": -1.0}


def test_summarize_empty_and_violations():
    with pytest.raises(QuditEpiError, match="no records to summarize"):
        summarize([])
    cfg = TrialConfig(d=2, trials=4, seed=15)
    (block,) = run_experiment("qepi", cfg, parallel=1)
    assert summarize([block]).violations == 0
    block.pass_flags["qepi_majorization"][0] = False
    # The flags changed in place, and `passed`, computed on each access,
    # reads them; a block rebuilt from the same fields counts the same.
    b = block
    rebuilt = TrialBlock(b.experiment, b.indices, b.taus, b.kappas, b.slacks, b.residuals, b.pass_flags, b.negligible)
    assert summarize([rebuilt]).violations == 1


def _reference_summary(rows, metadata=None) -> Summary:
    """The row-by-row fold that summarize replaced, as an oracle; `rows` are
    row dicts (see the rows_of fixture)."""
    trials = violations = 0
    min_slack: dict = {}
    max_residual = 0.0
    counts = [0] * (len(harness._HISTOGRAM_EDGES) + 1)
    for r in rows:
        trials += 1
        violations += not r["passed"]
        worst = math.inf
        for key, value in r["slacks"].items():
            low = min_slack.get(key)
            if low is None or value < low or value != value:
                min_slack[key] = value
            if value < worst or value != value:
                worst = value
        for value in r["residuals"].values():
            if value > max_residual or value != value:
                max_residual = value
        if r["slacks"]:
            counts[bisect.bisect_right(harness._HISTOGRAM_EDGES, worst)] += 1
    return Summary(
        trials,
        violations,
        {k: min_slack[k] for k in sorted(min_slack)},
        max_residual,
        {"edges": list(harness._HISTOGRAM_EDGES), "counts": counts},
        dict(metadata or {}),
    )


def _same_values(a: Summary, b: Summary) -> bool:
    """Equal summaries, a NaN equal to a NaN and 0.0 to -0.0."""

    def same(x, y):
        return x == y or (x != x and y != y)

    return (
        (a.trials, a.violations, a.histogram, a.metadata) == (b.trials, b.violations, b.histogram, b.metadata)
        and a.min_slack.keys() == b.min_slack.keys()
        and all(same(a.min_slack[k], b.min_slack[k]) for k in a.min_slack)
        and same(a.max_residual, b.max_residual)
    )


# Slack and residual values: the edge floats, and histogram edges often.
_VALUES = st.one_of(
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, *harness._HISTOGRAM_EDGES, -1e-12]),
    st.floats(),
)


@st.composite
def _split_blocks(draw):
    n = draw(st.integers(1, 12))
    columns = st.lists(_VALUES, min_size=n, max_size=n)
    keys = st.lists(st.sampled_from("abcd"), max_size=3, unique=True)
    slacks = {key: draw(columns) for key in draw(keys)}
    residuals = {key: draw(columns) for key in draw(keys)}
    flags = {key: draw(st.lists(st.booleans() | st.none(), min_size=n, max_size=n)) for key in draw(keys)}
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=4, unique=True))) if n > 1 else []
    parts = [
        TrialBlock(
            "qepi",
            range(lo, hi),
            [0.5] * (hi - lo),
            (),
            *({key: column[lo:hi] for key, column in c.items()} for c in (slacks, residuals, flags)),
            [0] * (hi - lo),
        )
        for lo, hi in zip([0, *cuts], [*cuts, n])
    ]
    return parts, draw(st.permutations(parts))


def _zeros_block(start, zeros):
    n = len(zeros)
    return TrialBlock("qepi", range(start, start + n), [0.5] * n, (), {"a": zeros}, {"r": zeros}, {}, [0] * n)


# 0.0 == -0.0: the first in row order is the min_slack, within a block and across blocks.
_ZEROS = [_zeros_block(0, [0.0, -0.0]), _zeros_block(2, [-0.0]), _zeros_block(3, [0.0])]


@settings(max_examples=200, deadline=None)
@given(split=_split_blocks())
@example(split=(_ZEROS, _ZEROS[::-1]))
@example(split=(_ZEROS[1:], _ZEROS[:0:-1]))
def test_summarize_depends_on_the_rows_not_the_blocks(rows_of, split):
    # Any split of the same rows into blocks gives the summary of the
    # row-by-row fold, signed zeros and NaNs included (compared by repr); in
    # any block order it gives the same values.
    parts, shuffled = split
    in_order = summarize(parts, {"m": 1})
    assert repr(in_order) == repr(_reference_summary(rows_of(parts), {"m": 1}))
    reordered = summarize(shuffled, {"m": 1})
    assert repr(reordered) == repr(_reference_summary(rows_of(shuffled), {"m": 1}))
    assert _same_values(in_order, reordered)


def test_standalone_matches_all_stream_layout(tmp_path, parse_jsonl):
    # `all --seed S` emits exactly the trials of the five `verify-<name> --seed S` runs
    common = ["--dim", "2", "--trials", "5", "--seed", "7", "--parallel", "1"]

    def trial_lines(command):
        out = tmp_path / f"{command}.jsonl"
        assert dispatch([command, *common, "--out", str(out)]) == 0
        return [ln for ln in parse_jsonl(out.read_text()) if ln["type"] == "trial"]

    combined = trial_lines("all")
    for line in combined:
        del line["experiment"]
    standalone = [
        line
        for command in ("verify-lemma", "verify-theorem", "verify-qepi", "concavity-scan", "search-conjecture")
        for line in trial_lines(command)
    ]
    assert len(combined) == 25
    assert combined == standalone
