import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qudit_epi import harness
from qudit_epi.cli import dispatch, parse_lines
from qudit_epi.entropy import climb_product_basis
from qudit_epi.errors import QuditEpiError, UsageError, ValidationError
from qudit_epi.harness import (
    Summary,
    TrialBlock,
    TrialConfig,
    TrialRecord,
    _bilocal_channel,
    _bilocal_setting,
    _conditioned_pieces,
    _slack_objective,
    _theorem_slack,
    _trial_source,
    resolve_kappas,
    run_concavity_trial,
    run_conjecture_trial,
    run_experiment,
    run_lemma_trial,
    run_qepi_trial,
    run_theorem_trial,
    summarize,
    validate_config,
)
from qudit_epi.measurement import projective_from_unitary
from qudit_epi.rand import RandomSource, haar_unitary, sample_state
from qudit_epi.states import multipartite, tensor


def _records_equal(a, b):
    return (
        a.index == b.index
        and a.tau == b.tau
        and a.kappas == b.kappas
        and a.slacks == b.slacks
        and a.residuals == b.residuals
        and a.passed == b.passed
    )


def test_trials_replay_exactly():
    cfg = TrialConfig(d=3, d_e1=2, d_e2=2, trials=5, seed=11)
    for fn in (run_lemma_trial, run_theorem_trial, run_qepi_trial, run_concavity_trial, run_conjecture_trial):
        assert _records_equal(fn(cfg, 3), fn(cfg, 3))


def test_forced_tau_endpoints():
    cfg = TrialConfig(d=2, trials=5, seed=1)
    taus = [run_qepi_trial(cfg, i).tau for i in range(5)]
    assert taus[:3] == [0.0, 0.5, 1.0]
    assert all(0.0 <= t <= 1.0 for t in taus)


def test_fixed_tau_respected():
    cfg = TrialConfig(d=2, tau=0.25, trials=3, seed=1)
    assert all(run_qepi_trial(cfg, i).tau == 0.25 for i in range(3))
    # A library caller's integer tau is a float in every trial, as a line
    # writes it ("tau":0.0), and as cli.render_block can render it.
    cfg = TrialConfig(d=2, tau=0, trials=3, seed=1)
    for fn in (run_lemma_trial, run_theorem_trial, run_qepi_trial, run_concavity_trial, run_conjecture_trial):
        assert repr(fn(cfg, 1).tau) == "0.0", fn


def test_lemma_trial_checks():
    cfg = TrialConfig(d=3, d_e1=2, d_e2=3, trials=1, seed=5)
    for i in range(20):
        r = run_lemma_trial(cfg, i)
        assert r.passed, r
        assert r.residuals["lemma_identity"] <= 1e-10
        assert r.slacks["lemma_majorization"] >= -1e-9
        assert r.residuals["factorization"] <= 1e-9
        assert r.residuals["prob_norm"] <= 1e-9


def test_lemma_counts_negligible_outcomes(monkeypatch, capsys, zero):
    # Environment 1 sits in |0><0| and is measured in the computational basis,
    # so its outcome 1 has probability exactly 0: both grid pairs that use it
    # are skipped and counted as negligible.
    real = harness._bilocal_setting

    def planted(cfg, gen, index):
        tau, _, s2, _, m2 = real(cfg, gen, index)
        s1 = multipartite(tensor(sample_state(gen, cfg.d), zero), (cfg.d, 2))
        return tau, s1, s2, projective_from_unitary(np.eye(2)), m2

    monkeypatch.setattr(harness, "_bilocal_setting", planted)
    r = run_lemma_trial(TrialConfig(d=2, trials=1, seed=5), 3)
    assert r.passed, r
    assert r.negligible == 2
    assert math.isfinite(r.slacks["lemma_majorization"])
    assert dispatch(["verify-lemma", "--dim", "2", "--trials", "2", "--seed", "5", "--parallel", "1"]) == 0
    trials = [line for line in parse_lines(capsys.readouterr().out) if line["type"] == "trial"]
    assert [line["negligible_outcomes"] for line in trials] == [2, 2]


def test_theorem_trial_kappa_zero_slack_is_zero():
    cfg = TrialConfig(d=2, trials=1, seed=6)
    for i in range(20):
        r = run_theorem_trial(cfg, i)
        assert abs(r.slacks["theorem_measured.k0"]) <= 1e-12
        assert r.passed


def _one_setting_objective(joint, s1, s2, tau, kappa):
    """The stacked slack objective of one setting at one kappa: it maps factor
    stacks of shape (1, 1, R, e, e) to the (1, 1, R) slacks."""
    mats = (s.state.mat[None] for s in (s1, s2, joint))
    return _slack_objective(joint.dims, *mats, [tau], [kappa])


_SEARCHED = [(2, (2, 2)), (3, (2, 2)), (2, (2, 3)), (3, (2, 3)), (2, (1, 4)), (3, (1, 4))]
# Grids of 8 or more outcomes, where numpy's pairwise sums stop being sequential.
_SEARCHED += [(2, (3, 3)), (2, (2, 4)), (2, (4, 4))]


@pytest.mark.parametrize("d, envs", _SEARCHED, ids=[f"env{e1}{e2}-{d}" for d, (e1, e2) in _SEARCHED])
def test_theorem_search_is_validated_and_never_above_haar(d, envs):
    # Replays each trial's search alone: the recorded slack is, bit for bit,
    # the validated scalar slack at the basis the climb returns (at the Haar
    # pair for kappa = 0), it equals the climb's own (stacked) value, and it is
    # never above the slack at the trial's Haar pair. prob_norm and the
    # negligible count are the scalar route's too.
    cfg = TrialConfig(d=d, d_e1=envs[0], d_e2=envs[1], seed=16)
    for index in range(20):
        record = run_theorem_trial(cfg, index)
        source = _trial_source(cfg, "theorem", index)
        tau, s1, s2, m1, m2 = _bilocal_setting(cfg, source.generator(), index)
        joint = _bilocal_channel(s1, s2, tau)
        *haar, prob_norm = _conditioned_pieces(joint, s1, s2, m1, m2)
        assert record.negligible == sum(o.negligible for row in haar[2] for o in row)
        for t, kappa in enumerate(record.kappas):
            key = f"theorem_measured.k{t}"
            assert record.slacks[key] <= _theorem_slack(tau, kappa, *haar) + 1e-12, (index, key)
            if kappa == 0.0:
                assert record.slacks[key] == _theorem_slack(tau, kappa, *haar)
                continue
            value, (u1, u2) = climb_product_basis(
                _one_setting_objective(joint, s1, s2, tau, kappa),
                [m1.basis[None, None], m2.basis[None, None]],
                [source.derive(t)],
            )
            pair = projective_from_unitary(u1[0, 0]), projective_from_unitary(u2[0, 0])
            *found, norm = _conditioned_pieces(joint, s1, s2, *pair)
            prob_norm = max(prob_norm, norm)
            assert record.slacks[key] == _theorem_slack(tau, kappa, *found)
            assert float(value[0, 0]) == pytest.approx(record.slacks[key], abs=1e-12), (index, key)
        assert record.residuals["prob_norm"] == prob_norm


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
        value, _ = climb_product_basis(objective, start, [RandomSource(18)])
        at_start = objective([u[:, :, None] for u in start])[0, 0, 0]
        assert at_start - 1e-12 <= value[0, 0] <= at_start


def test_qepi_trial_worked_example_reachable():
    cfg = TrialConfig(d=2, trials=1, seed=8)
    for i in range(20):
        r = run_qepi_trial(cfg, i)
        assert r.passed
        assert r.slacks["qepi_majorization"] >= -1e-9


def test_concavity_trial():
    cfg = TrialConfig(d=4, trials=1, seed=9)
    for i in range(20):
        r = run_concavity_trial(cfg, i)
        assert r.passed
        assert all(v >= -1e-9 for k, v in r.slacks.items())


def test_conjecture_trivial_env_never_violates():
    cfg = TrialConfig(d=2, d_e1=1, d_e2=1, trials=1, seed=10)
    for i in range(30):
        r = run_conjecture_trial(cfg, i)
        assert r.passed
        assert r.slacks["conjecture"] >= -1e-9
        assert "conjecture_control" in r.slacks


def test_conjecture_entangled_env_candidates_are_reverified():
    cfg = TrialConfig(d=2, d_e1=2, d_e2=2, trials=1, seed=10)
    seen_candidate = False
    for i in range(30):
        r = run_conjecture_trial(cfg, i)
        if "conjecture_perturbed" in r.slacks:
            seen_candidate = True
            assert r.pass_flags["reverified_candidate"] == (r.slacks["conjecture_perturbed"] >= -10 * cfg.tolerance)
    # correlated sampling makes candidates common; the protocol must engage
    assert seen_candidate


def test_exploratory_kappa_is_diagnostic_only():
    cfg = TrialConfig(d=2, kappa=3.0, exploratory_kappa=True, trials=1, seed=12)
    r = run_concavity_trial(cfg, 5)
    assert "concavity.k0" in r.slacks
    assert "concavity.k0" not in r.pass_flags
    assert resolve_kappas(cfg) == ((3.0, False),)


def _kappa_keys(prefix):
    return {f"{prefix}.k{t}" for t in range(3)}


_LEMMA_KEYS = {"lemma_majorization", "lemma_identity", "major_total", "factorization", "prob_norm"}
_EXPLORATORY = {"kappa": 3.0, "exploratory_kappa": True}


@pytest.mark.parametrize(
    "fn, cfg, expected",
    [
        (run_lemma_trial, TrialConfig(d=2, d_e1=2, d_e2=3), _LEMMA_KEYS),
        (run_theorem_trial, TrialConfig(d=2), {"prob_norm"} | _kappa_keys("theorem_measured")),
        (run_qepi_trial, TrialConfig(d=3), {"qepi_majorization", "major_total"} | _kappa_keys("qepi")),
        (run_concavity_trial, TrialConfig(d=4), _kappa_keys("concavity")),
        (run_conjecture_trial, TrialConfig(d=2, d_e1=2), {"reverified_candidate"}),
        (run_conjecture_trial, TrialConfig(d=2, d_e1=1), {"reverified_candidate", "conjecture"}),
        (run_theorem_trial, TrialConfig(d=2, **_EXPLORATORY), {"prob_norm"}),
        (run_qepi_trial, TrialConfig(d=2, **_EXPLORATORY), {"qepi_majorization", "major_total"}),
        (run_concavity_trial, TrialConfig(d=2, **_EXPLORATORY), set()),
    ],
    ids=[
        "lemma",
        "theorem",
        "qepi",
        "concavity",
        "conjecture-env2",
        "conjecture-env1",
        "theorem-exploratory",
        "qepi-exploratory",
        "concavity-exploratory",
    ],
)
def test_hard_check_key_sets(fn, cfg, expected):
    # Exactly these checks decide a trial's verdict; every other slack is a diagnostic.
    for i in range(5):
        assert set(fn(cfg, i).pass_flags) == expected, i


def test_verdict_flags():
    # Flag columns of the slacks come first, then those of the residuals; a
    # soft slack gets none; a value on the tolerance passes, a NaN fails and a
    # row without a value (None) gets no flag.
    tol = 1e-9
    slacks = {"s.hard": [-tol, None], "s.soft": [-1.0, -1.0], "s.nan": [math.nan, 0.0], "s.low": [-2 * tol, 1.0]}
    residuals = {"r.edge": [tol, None], "r.nan": [math.nan, 0.0], "r.high": [2 * tol, -1.0]}
    flags = harness._verdict(TrialConfig(tolerance=tol), slacks, residuals, {"s.soft"})
    assert list(flags.items()) == [
        ("s.hard", [True, None]),
        ("s.nan", [False, True]),
        ("s.low", [False, True]),
        ("r.edge", [True, None]),
        ("r.nan", [False, True]),
        ("r.high", [False, True]),
    ]


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


def test_validate_config_total_dim_cap_is_inclusive():
    # d=6, e1=4, e2=4 gives exactly 6*6*4*4 = 576 which exceeds nothing
    validate_config(TrialConfig(d=6, d_e1=4, d_e2=4, trials=1), "lemma")


def test_run_experiment_parallel_matches_serial():
    cfg = TrialConfig(d=2, trials=12, seed=13)
    serial, sum1 = run_experiment("qepi", cfg, parallel=1)
    parallel, sum2 = run_experiment("qepi", cfg, parallel=2)
    assert len(serial) == len(parallel) == 12
    for a, b in zip(serial, parallel):
        assert _records_equal(a, b)
    assert sum1.min_slack == sum2.min_slack
    assert sum1.violations == sum2.violations
    for workers in (0, -1):
        with pytest.raises(UsageError, match=f"--parallel must be >= 1, got {workers}"):
            run_experiment("qepi", cfg, parallel=workers)


def test_trial_failure_names_experiment_index_and_stream_key(monkeypatch, capsys):
    real = harness._TRIAL_FNS["qepi"]

    def fails_at_three(cfg, indices):
        if 3 in indices:
            raise ValidationError("smallest eigenvalue -1.0e-03 below -tol 1.0e-10")
        return real(cfg, indices)

    monkeypatch.setitem(harness._TRIAL_FNS, "qepi", fails_at_three)
    cfg = TrialConfig(d=2, trials=6, seed=21)
    with pytest.raises(ValidationError) as err:
        run_experiment("qepi", cfg, parallel=1)
    key = (21, harness._STREAM_BASE["qepi"] + 3)
    assert str(err.value) == f"qepi trial 3, stream key {key}: smallest eigenvalue -1.0e-03 below -tol 1.0e-10"
    assert isinstance(err.value.__cause__, ValidationError)
    assert dispatch(["verify-qepi", "--dim", "2", "--trials", "6", "--seed", "21", "--parallel", "1"]) == 1
    assert f"error: qepi trial 3, stream key {key}: smallest eigenvalue" in capsys.readouterr().err


def test_summarize_order_independent(block_of):
    cfg = TrialConfig(d=2, trials=6, seed=14)
    records, _ = run_experiment("concavity", cfg, parallel=1)
    a = summarize([block_of(records)])
    b = summarize([block_of(list(reversed(records)))])
    assert a.min_slack == b.min_slack
    assert a.histogram == b.histogram
    assert a.trials == b.trials


@pytest.mark.parametrize(
    "worst, bin_index",
    [
        (-math.inf, 0),
        (-1e-3, 1),
        (-1e-6, 2),
        (-1e-9, 3),
        (-0.0, 4),
        (0.0, 4),
        (1e-9, 5),
        (1e-6, 6),
        (1e-3, 7),
        (math.inf, 7),
        (math.nan, 7),
    ],
)
def test_summarize_histogram_bins(block_of, worst, bin_index):
    # A row falls in the bin of its worst slack, to the right of an edge it
    # lies on. A NaN slack is the worst, in either key order, and falls in the
    # last bin. A row without slacks falls in none.
    other = -1.0 if math.isnan(worst) else math.inf
    for slacks in ({"a": worst, "b": other}, {"a": other, "b": worst}, {"a": worst}):
        rows = [TrialRecord("qepi", 0, 0.5, (), slacks, {}, {}), TrialRecord("qepi", 1, 0.5, (), {}, {}, {})]
        counts = summarize([block_of(rows)]).histogram["counts"]
        assert counts == [int(i == bin_index) for i in range(8)], slacks


def test_summarize_nan_is_sticky_in_either_order(block_of):
    # A NaN slack or residual is the fold's min_slack or max_residual,
    # whichever row comes first, in one block or in two.
    nan_trial = TrialRecord("qepi", 0, 0.5, (), {"a": math.nan}, {"r": math.nan}, {})
    low_trial = TrialRecord("qepi", 1, 0.5, (), {"a": -1.0}, {"r": 1.0}, {})
    for records in ([nan_trial, low_trial], [low_trial, nan_trial]):
        for blocks in ([block_of(records)], [block_of(records[:1]), block_of(records[1:])]):
            summary = summarize(iter(blocks))
            assert math.isnan(summary.min_slack["a"]) and math.isnan(summary.max_residual)
            assert summary.trials == 2
            assert summary.histogram["counts"] == [1, 0, 0, 0, 0, 0, 0, 1]
    assert summarize([block_of([low_trial])]).min_slack == {"a": -1.0}


def test_summarize_empty_and_violations(block_of):
    with pytest.raises(QuditEpiError, match="no records to summarize"):
        summarize([])
    cfg = TrialConfig(d=2, trials=4, seed=15)
    records, summary = run_experiment("qepi", cfg, parallel=1)
    assert summary.violations == 0
    records[0].pass_flags["qepi_majorization"] = False
    assert summarize([block_of(records)]).violations == 1


def _reference_summary(records, metadata=None) -> Summary:
    """The record-by-record fold that summarize replaced, as an oracle."""
    trials = violations = 0
    min_slack: dict = {}
    max_residual = 0.0
    counts = [0] * (len(harness._HISTOGRAM_EDGES) + 1)
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
def test_summarize_depends_on_the_rows_not_the_blocks(split):
    # Any split of the same rows into blocks gives the summary of the
    # record-by-record fold, signed zeros and NaNs included (compared by
    # repr); in any block order it gives the same values.
    parts, shuffled = split
    in_order = summarize(parts, {"m": 1})
    rows = [row for part in parts for row in part.rows()]
    assert repr(in_order) == repr(_reference_summary(rows, {"m": 1}))
    reordered = summarize(shuffled, {"m": 1})
    assert repr(reordered) == repr(_reference_summary([row for part in shuffled for row in part.rows()], {"m": 1}))
    assert _same_values(in_order, reordered)


def test_standalone_matches_all_stream_layout(tmp_path):
    # `all --seed S` emits exactly the trials of the five `verify-<name> --seed S` runs
    common = ["--dim", "2", "--trials", "5", "--seed", "7", "--parallel", "1"]

    def trial_lines(command):
        out = tmp_path / f"{command}.jsonl"
        assert dispatch([command, *common, "--out", str(out)]) in (0, 2)
        return [ln for ln in parse_lines(out.read_text()) if ln["type"] == "trial"]

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
