import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qudit_epi import entropy as entropy_module
from qudit_epi import rand
from qudit_epi.entropy import (
    CLIMB_REFINE_STEPS,
    CLIMB_RESTARTS,
    CLIMB_STEP_SCALE,
    climb_product_basis,
    projective_entropy_power,
)
from qudit_epi.errors import QuditEpiError, ValidationError
from qudit_epi.harness import kappa_bounds
from qudit_epi.measurement import PROB_FLOOR, check_complete
from qudit_epi.rand import haar_unitary
from qudit_epi.states import entropy_nats_rows, make_density

import oracles
from oracles import (
    ConditionalOutcome,
    RandomSource,
    condition_all,
    conditional_vn_entropy,
    entropy_power,
    expected_entropy_power,
    majorizes,
    multipartite,
    projective_from_unitary,
    sample_state,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)


def test_majorizes_basic():
    assert majorizes([0.7, 0.3], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [0.6, 0.4])
    assert majorizes([1.0, 0.0], [0.9330127018922193, 0.0669872981077807])
    assert majorizes([0.4, 0.6], [0.4, 0.6])  # reflexive, sorts internally


def test_majorizes_extremes():
    rng = np.random.default_rng(50)
    for d in (2, 3, 5):
        for _ in range(20):
            p = rng.dirichlet(np.ones(d))
            peak = np.zeros(d)
            peak[0] = 1.0
            assert majorizes(peak, p)
            assert majorizes(p, np.ones(d) / d)


def test_majorizes_zero_pads():
    assert majorizes([1.0, 0.0, 0.0], [0.5, 0.5])


def test_majorizes_total_mismatch():
    with pytest.raises(QuditEpiError, match="totals differ by"):
        majorizes([0.6, 0.3], [0.5, 0.5])


def test_shannon_entropy_values():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
    assert shannon_entropy([1 / 3] * 3) == pytest.approx(math.log(3), abs=1e-14)
    with pytest.raises(ValidationError, match="negative entry -0.1"):
        shannon_entropy([0.9, -0.1, 0.2])
    with pytest.raises(ValidationError, match="entries sum to 0.8"):
        shannon_entropy([0.4, 0.4])


def test_von_neumann_entropy_values(plus):
    assert von_neumann_entropy(plus) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(make_density(np.eye(4) / 4)) == pytest.approx(math.log(4), abs=1e-12)
    worked = make_density([[0.75, (1 - 1j) / 4], [(1 + 1j) / 4, 0.25]])
    # frozen from the characteristic-polynomial oracle
    assert von_neumann_entropy(worked) == pytest.approx(0.24577536666847116, abs=1e-12)


def test_entropy_power_values(plus):
    assert entropy_power(plus, 2.0) == pytest.approx(1.0, abs=1e-12)
    half = make_density(np.eye(2) / 2)
    assert entropy_power(half, 1.0) == pytest.approx(2.0, abs=1e-12)
    kappa1 = kappa_bounds(2)
    assert entropy_power(half, kappa1) == pytest.approx(4.232086106557082, abs=1e-12)
    assert entropy_power(half, 0.0) == 1.0


def test_entropy_power_symmetry_and_bounds():
    rng = np.random.default_rng(51)
    for d in (2, 4):
        kappa = kappa_bounds(d)
        for _ in range(20):
            p = rng.dirichlet(np.ones(d))
            v = entropy_power(p, kappa)
            assert entropy_power(p[::-1].copy(), kappa) == pytest.approx(v, abs=1e-12)
            assert 1.0 - 1e-12 <= v <= math.exp(kappa * math.log(d)) + 1e-9


def test_kappa_bounds():
    assert kappa_bounds(2) == pytest.approx(2.0813689810056077, abs=1e-15)
    values = [kappa_bounds(d) for d in range(2, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_schur_concavity_of_entropy_power():
    # mixing by averaging random permutations only moves down the order
    rng = np.random.default_rng(52)
    for d in (3, 5):
        kappa = kappa_bounds(d)
        for _ in range(30):
            n = rng.dirichlet(np.ones(d))
            mixed = np.zeros(d)
            for _ in range(4):
                mixed += n[rng.permutation(d)]
            mixed /= 4
            assert majorizes(n, mixed)
            assert entropy_power(mixed, kappa) >= entropy_power(n, kappa) - 1e-9


def test_midpoint_concavity_within_window():
    rng = np.random.default_rng(53)
    for d in (2, 3):
        kappa = kappa_bounds(d)
        for _ in range(200):
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            lhs = entropy_power((p + q) / 2, kappa)
            rhs = (entropy_power(p, kappa) + entropy_power(q, kappa)) / 2
            assert lhs >= rhs - 1e-9


def test_conditional_vn_entropy(bell):
    gen = RandomSource(54).generator()
    a = sample_state(gen, 3)
    b = sample_state(gen, 2)
    s = multipartite(tensor(a, b), (3, 2))
    assert conditional_vn_entropy(s) == pytest.approx(von_neumann_entropy(a), abs=1e-10)
    assert conditional_vn_entropy(multipartite(bell, (2, 2))) == pytest.approx(-math.log(2), abs=1e-10)
    quarter = multipartite(make_density(np.eye(4) / 4), (2, 2))
    assert conditional_vn_entropy(quarter) == pytest.approx(math.log(2), abs=1e-12)


def test_conditional_vn_entropy_bounds():
    gen = RandomSource(55).generator()
    for _ in range(25):
        s = multipartite(sample_state(gen, 6), (3, 2))
        val = conditional_vn_entropy(s)
        assert -math.log(3) - 1e-9 <= val <= math.log(3) + 1e-9


def test_expected_entropy_power():
    pure = make_density(np.diag([1.0, 0.0]))
    half = make_density(np.eye(2) / 2)
    outs = [ConditionalOutcome(0, 1.0, pure)]
    assert expected_entropy_power(outs, 1.0) == pytest.approx(1.0)
    outs = [ConditionalOutcome(0, 0.5, pure), ConditionalOutcome(1, 0.5, half)]
    assert expected_entropy_power(outs, 1.0) == pytest.approx(1.5, abs=1e-12)
    outs.append(ConditionalOutcome(2, 0.0, None))  # negligible contributes nothing
    assert expected_entropy_power(outs, 1.0) == pytest.approx(1.5, abs=1e-12)


def _haar_start(gen, env_dims):
    return [haar_unitary(e, gen) for e in env_dims]


def test_projective_entropy_power_matches_validated_route():
    # Qubit systems (dx = 2) take the closed-form spectra; pure and rank-1
    # states condition to rank-1 blocks, the closed form's cancelling end.
    gen = RandomSource(58).generator()
    cases = [(2, 2, "ginibre"), (3, 2, "ginibre"), (2, 4, "ginibre")]
    cases += [(2, de, kind) for de in (1, 3, 4) for kind in ("pure", "rank-k")]
    for dx, de, kind in cases:
        s = multipartite(sample_state(gen, dx * de, kind, rank=1), (dx, de))
        basis = haar_unitary(de, gen)
        outcomes = condition_all(s, projective_from_unitary(basis))
        ((probs, powers),) = projective_entropy_power([s.state.mat.reshape(dx, de, dx, de)], [basis], 0.7)
        assert probs.tolist() == pytest.approx([o.probability for o in outcomes], abs=1e-15)
        assert powers.tolist() == pytest.approx([entropy_power(o.state, 0.7) for o in outcomes], abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["ginibre", "rank-1", "maximally-mixed", "diagonal"]),
    scale=st.sampled_from([1.0, PROB_FLOOR * (1 - 1e-3), PROB_FLOOR * (1 + 1e-3)]),
    skewed=st.booleans(),
)
def test_qubit_spectra_match_eigvalsh(seed, shape, scale, skewed):
    # The closed-form qubit branch against the trace and eigvalsh it replaces,
    # on blocks of trace `scale`: at PROB_FLOOR * (1 -+ 1e-3) the outcome sits
    # just either side of the floor. A skewed block is non-Hermitian by
    # round-off (s01 != conj s10, complex diagonal), as a conditioned block is.
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((16, 2, 2)) + 1j * gen.standard_normal((16, 2, 2))
    if shape == "rank-1":
        g[..., 1] = 0.0
    blocks = g @ g.conj().swapaxes(-1, -2)
    if shape == "maximally-mixed":
        blocks = np.eye(2) * np.trace(blocks, axis1=-2, axis2=-1)[..., None, None] / 2
    elif shape == "diagonal":
        blocks = blocks * np.eye(2)
    blocks = blocks * (scale / np.trace(blocks, axis1=-2, axis2=-1).real)[..., None, None]
    if skewed:
        noise = gen.standard_normal((16, 2, 2)) + 1j * gen.standard_normal((16, 2, 2))
        blocks = blocks + 1e-16 * scale * noise

    probs, kept, lam = entropy_module._normalized_spectra(blocks)
    trace = np.trace(blocks, axis1=-2, axis2=-1).real
    assert np.array_equal(probs, trace)
    assert np.array_equal(kept, trace > PROB_FLOOR)
    expected = np.linalg.eigvalsh(blocks / np.where(kept, trace, 1.0)[..., None, None])
    assert np.abs(lam - expected)[kept].max(initial=0.0) <= 1e-14

    kappa = kappa_bounds(2)
    ((got_probs, powers),) = projective_entropy_power([blocks.reshape(16, 2, 1, 2, 1)], [np.ones((1, 1))], kappa)
    entropies = entropy_nats_rows(np.clip(expected, 0.0, None))
    assert np.array_equal(got_probs[:, 0], np.where(kept, trace, 0.0))
    assert np.abs(powers[:, 0] - np.where(kept, np.exp(kappa * entropies), 0.0)).max() <= 1e-12


def test_projective_entropy_power_drops_floor_outcomes():
    # (1 - w)|00><00| + w|01><01| measured in the computational basis: outcome 1
    # has probability w, below the floor, so it reads 0 in both arrays.
    w = 1e-13
    rho4 = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    rho4[0, 0, 0, 0] = 1.0 - w
    rho4[0, 1, 0, 1] = w
    ((probs, powers),) = projective_entropy_power([rho4], [np.eye(2)], 1.0)
    assert probs.tolist() == [1.0 - w, 0.0]
    assert powers.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("env_dims", [(3,), (2, 3)], ids=["one-env", "two-envs"])
def test_optimizer_product_state_is_exact(env_dims, expected_power_objective):
    # x (x) e1 (x) ... (x) en: every product basis conditions X on x, so the
    # climb returns its start value up to round-off.
    gen = RandomSource(56).generator()
    x = sample_state(gen, 2)
    joint = x
    for de in env_dims:
        joint = tensor(joint, sample_state(gen, de))
    objective = expected_power_objective(multipartite(joint, (2, *env_dims)), 1.0)
    start = _haar_start(gen, env_dims)
    value, factors = climb_product_basis(objective, start, 1, 0)
    assert objective(start) - 1e-12 <= value <= objective(start)
    assert value == pytest.approx(entropy_power(x, 1.0), abs=1e-10)
    assert [f.shape for f in factors] == [(e, e) for e in env_dims]


def test_optimizer_kappa_zero_returns_one(bell, expected_power_objective):
    objective = expected_power_objective(multipartite(bell, (2, 2)), 0.0)
    value, _ = climb_product_basis(objective, [np.eye(2)], 2, 0)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_optimizer_bell_fixture(bell, expected_power_objective):
    # pre-build brute-force scan over qubit bases: every basis yields 1.0
    objective = expected_power_objective(multipartite(bell, (2, 2)), 1.0)
    value, _ = climb_product_basis(objective, _haar_start(RandomSource(3).generator(), (2,)), 3, 0)
    assert value <= 1.0 + 1e-9
    assert value >= 1.0 - 1e-9


def test_optimizer_deterministic(expected_power_objective):
    gen = RandomSource(57).generator()
    objective = expected_power_objective(multipartite(sample_state(gen, 6), (2, 3)), 1.0)
    start = _haar_start(gen, (3,))
    a = climb_product_basis(objective, start, 4, 0)
    # numpy integers key the streams of their values
    b = climb_product_basis(objective, start, np.int64(4), np.uint64(0))
    assert a[0] == b[0]
    assert all(np.array_equal(u, v) for u, v in zip(a[1], b[1]))
    # never above the start, and the value is the objective at the factors returned
    assert a[0] <= objective(start)
    assert a[0] == objective(a[1])


def test_climb_restart_retry_keeps_the_one_climb_draw_order(monkeypatch):
    # Every batched restart draw fails its check, and haar_unitary's first
    # draw of each replayed restart fails too, so it retries once and the
    # restart's steps must be drawn after the retry. An objective that
    # favours restart 2 and drops at every call makes each climb accept all
    # of its steps: the factor returned is restart 2's Haar start times each
    # of its step rotations, drawn in the one-climb order.
    real = rand._haar_checked
    one_matrix_draws = itertools.count()

    def checked(g):
        u, ok = real(g)
        if g.ndim > 2:
            return np.full(g.shape, np.nan, dtype=complex), np.zeros(g.shape[:-2], dtype=bool)
        return u, ok & (next(one_matrix_draws) % 2 == 1)

    monkeypatch.setattr(rand, "_haar_checked", checked)
    calls = iter(range(1 + CLIMB_REFINE_STEPS))

    def objective(factors):
        return -float(next(calls)) - (np.arange(CLIMB_RESTARTS) == 2)

    source = RandomSource(62)
    _, (found,) = climb_product_basis(objective, [np.eye(2, dtype=complex)], source.master_seed, source.stream_index)
    assert next(one_matrix_draws) == 4  # two draws for each of restarts 1 and 2
    gen = source.derive(2).generator()
    gen.standard_normal(2 * 2 * 2)  # the first draw, which failed
    expected = oracles.haar_unitary(2, gen)
    for _ in range(CLIMB_REFINE_STEPS):
        g = gen.standard_normal((2, 2, 2))
        a = g[0] + 1j * g[1]
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
        expected = expected @ (v * np.exp(1j * CLIMB_STEP_SCALE * w)) @ v.conj().T
    assert np.abs(found - expected).max() <= 1e-12


_TWO_SEARCHES = [np.stack([np.eye(2, dtype=complex)] * 2)]


@pytest.mark.parametrize(
    "starts, streams, message",
    [
        (_TWO_SEARCHES, np.zeros(0, dtype=np.uint64), r"stream keys of shape \(0,\) for searches of shape \(2,\)"),
        (_TWO_SEARCHES, np.zeros(3, dtype=np.uint64), r"stream keys of shape \(3,\) for searches of shape \(2,\)"),
        (_TWO_SEARCHES, np.zeros((2, 1), dtype=np.uint64), r"stream keys of shape \(2, 1\) for searches of shape \(2,\)"),
        ([], 0, rf"need 1 to {CLIMB_REFINE_STEPS} start factors, got 0"),
        ([np.zeros((2, 2, 3), dtype=complex)], np.zeros(2, dtype=np.uint64), r"must be square with one lead shape"),
        ([np.eye(2, dtype=complex)[None]] * 2 + [np.eye(2, dtype=complex)], 0, r"one lead shape"),
        (
            [np.eye(2, dtype=complex)] * (CLIMB_REFINE_STEPS + 1),
            0,
            rf"start factors, got {CLIMB_REFINE_STEPS + 1}",
        ),
    ],
    ids=["empty", "wrong-count", "key-shape", "no-factors", "non-square", "lead-shapes", "too-many-factors"],
)
def test_climb_rejects_malformed_sources_before_any_draw(monkeypatch, starts, streams, message):
    # Any draw or objective call would fail with another error.
    monkeypatch.setattr(entropy_module, "KeyedStreams", None)

    def objective(factors):
        raise AssertionError("the objective ran")

    with pytest.raises(QuditEpiError, match=message):
        climb_product_basis(objective, starts, 5, streams)


def _eigh_rotations(h, theta):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * theta * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _hermitian(h00, h11, h10):
    h = np.empty((*np.shape(h10), 2, 2), dtype=np.complex128)
    h[..., 0, 0], h[..., 1, 1] = h00, h11
    h[..., 1, 0], h[..., 0, 1] = h10, np.conj(h10)
    return h


def test_qubit_rotations_match_eigh():
    # GUE-style draws as the climb makes them, H = cI (r = 0), a half-gap
    # r ~ 1e-160 whose square underflows, and a large trace half t. Either
    # route carries a phase error of order eps * theta * |t|, so the large-t
    # case is compared with eigh at theta * t ~ 4 rad, beyond any GUE draw,
    # and at t ~ 1e6 only for unitarity.
    gen = np.random.default_rng(63)
    g = gen.standard_normal((2, 400, 2, 2))
    a = g[0] + 1j * g[1]
    thetas = (CLIMB_STEP_SCALE, 1.0)
    offdiagonal = gen.standard_normal(50) * (1 + 1j)
    cases = {
        "gue": ((a + a.conj().swapaxes(-1, -2)) / 2, thetas),
        "scalar": (_hermitian(*[gen.standard_normal(50)] * 2, np.zeros(50)), thetas),
        "underflow": (_hermitian(0.3, 0.3, 1e-160j * gen.standard_normal(50)), thetas),
        "large-trace": (_hermitian(*(20 + gen.standard_normal((2, 50))), offdiagonal), thetas[:1]),
        "huge-trace": (_hermitian(*(1e6 + gen.standard_normal((2, 50))), offdiagonal), ()),
    }
    for name, (h, compared) in cases.items():
        for theta in thetas:
            u = entropy_module._qubit_rotations(h, theta)
            if theta in compared:
                assert np.abs(u - _eigh_rotations(h, theta)).max() <= 1e-14, name
            assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2)).max() <= 1e-14, name


def test_qubit_product_matches_matmul():
    gen = np.random.default_rng(64)
    g = gen.standard_normal((2, 2, 300, 2, 2))
    a, b = (entropy_module._qubit_rotations((x + x.conj().swapaxes(-1, -2)) / 2, 1.0) for x in g[:, 0] + 1j * g[:, 1])
    assert np.abs(entropy_module._qubit_product(a, b) - a @ b).max() <= 1e-15
    assert np.abs(entropy_module._qubit_product(a[:, None], b[:7]) - a[:, None] @ b[:7]).max() <= 1e-15


# The objective fixture is a stateless function, safe to share across examples.
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    env_dims=st.sampled_from([(2, 2), (2, 3), (1, 2)]),
    steps=st.sampled_from([CLIMB_REFINE_STEPS, 100]),
)
def test_climb_keeps_its_start_bound_and_unitary_factors(seed, env_dims, steps, expected_power_objective):
    # Qubit factors take the closed-form rotations and elementwise products,
    # the others eigh and @; at 100 steps the products must not drift off
    # the unitary group.
    gen = RandomSource(seed).generator()
    s = multipartite(sample_state(gen, 2 * math.prod(env_dims)), (2, *env_dims))
    objective = expected_power_objective(s, 1.0)
    start = _haar_start(gen, env_dims)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entropy_module, "CLIMB_REFINE_STEPS", steps)
        value, factors = climb_product_basis(objective, start, seed, RandomSource(seed).derive(1).stream_index)
    assert value <= objective(start)
    for f, e in zip(factors, env_dims):
        assert f.shape == (e, e)
        check_complete(f)
        assert np.abs(f.conj().T @ f - np.eye(e)).max() <= 1e-13
