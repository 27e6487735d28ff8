import math

import numpy as np
import pytest

from qudit_epi import entropy as entropy_module
from qudit_epi.entropy import (
    CLIMB_REFINE_STEPS,
    CLIMB_RESTARTS,
    CLIMB_STEP_SCALE,
    climb_product_basis,
    entropy_power,
    kappa_bounds,
    majorizes,
    projective_entropy_power,
    shannon_entropy,
    von_neumann_entropy,
)
from qudit_epi.errors import QuditEpiError, ValidationError
from qudit_epi.rand import RandomSource, haar_unitary, sample_state
from qudit_epi.states import make_density

from oracles import (
    ConditionalOutcome,
    condition_all,
    conditional_vn_entropy,
    expected_entropy_power,
    multipartite,
    projective_from_unitary,
    tensor,
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
    kappa1 = kappa_bounds(2)[0]
    assert entropy_power(half, kappa1) == pytest.approx(4.232086106557082, abs=1e-12)
    assert entropy_power(half, 0.0) == 1.0


def test_entropy_power_symmetry_and_bounds():
    rng = np.random.default_rng(51)
    for d in (2, 4):
        kappa = kappa_bounds(d)[0]
        for _ in range(20):
            p = rng.dirichlet(np.ones(d))
            v = entropy_power(p, kappa)
            assert entropy_power(p[::-1].copy(), kappa) == pytest.approx(v, abs=1e-12)
            assert 1.0 - 1e-12 <= v <= math.exp(kappa * math.log(d)) + 1e-9


def test_kappa_bounds():
    k1, k2 = kappa_bounds(2)
    assert k1 == pytest.approx(2.0813689810056077, abs=1e-15)
    assert k2 == 1.0
    assert kappa_bounds(3)[1] == pytest.approx(0.5)
    values = [kappa_bounds(d)[0] for d in range(2, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_schur_concavity_of_entropy_power():
    # mixing by averaging random permutations only moves down the order
    rng = np.random.default_rng(52)
    for d in (3, 5):
        kappa = kappa_bounds(d)[0]
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
        kappa = kappa_bounds(d)[0]
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
    gen = RandomSource(58).generator()
    for dx, de in [(2, 2), (3, 2), (2, 4)]:
        s = multipartite(sample_state(gen, dx * de), (dx, de))
        basis = haar_unitary(de, gen)
        outcomes = condition_all(s, projective_from_unitary(basis))
        ((probs, powers),) = projective_entropy_power([s.state.mat.reshape(dx, de, dx, de)], [basis], 0.7)
        assert probs.tolist() == pytest.approx([o.probability for o in outcomes], abs=1e-15)
        assert powers.tolist() == pytest.approx([entropy_power(o.state, 0.7) for o in outcomes], abs=1e-12)


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
    value, factors = climb_product_basis(objective, start, [RandomSource(1)])
    assert objective(start) - 1e-12 <= value <= objective(start)
    assert value == pytest.approx(entropy_power(x, 1.0), abs=1e-10)
    assert [f.shape for f in factors] == [(e, e) for e in env_dims]


def test_optimizer_kappa_zero_returns_one(bell, expected_power_objective):
    objective = expected_power_objective(multipartite(bell, (2, 2)), 0.0)
    value, _ = climb_product_basis(objective, [np.eye(2)], [RandomSource(2)])
    assert value == pytest.approx(1.0, abs=1e-12)


def test_optimizer_bell_fixture(bell, expected_power_objective):
    # pre-build brute-force scan over qubit bases: every basis yields 1.0
    objective = expected_power_objective(multipartite(bell, (2, 2)), 1.0)
    value, _ = climb_product_basis(objective, _haar_start(RandomSource(3).generator(), (2,)), [RandomSource(3)])
    assert value <= 1.0 + 1e-9
    assert value >= 1.0 - 1e-9


def test_optimizer_deterministic(expected_power_objective):
    gen = RandomSource(57).generator()
    objective = expected_power_objective(multipartite(sample_state(gen, 6), (2, 3)), 1.0)
    start = _haar_start(gen, (3,))
    a = climb_product_basis(objective, start, [RandomSource(4)])
    b = climb_product_basis(objective, start, [RandomSource(4)])
    assert a[0] == b[0]
    assert all(np.array_equal(u, v) for u, v in zip(a[1], b[1]))
    # never above the start, and the value is the objective at the factors returned
    assert a[0] <= objective(start)
    assert a[0] == objective(a[1])


def test_climb_restart_retry_keeps_the_one_climb_draw_order(monkeypatch):
    # Every stacked restart fails its check, and the scalar redraw retries
    # once (its first draw is skipped as if it had failed), so the restart's
    # steps must be drawn after the retry. An objective that favours restart 2
    # and drops at every call makes each climb accept all of its steps: the
    # factor returned is restart 2's Haar start times each of its step
    # rotations, drawn in the one-climb order.
    scalar = entropy_module.haar_unitary

    def garbage(g):
        return np.full(g.shape, np.nan, dtype=complex), np.zeros(g.shape[:-2], dtype=bool)

    def retries_once(e, gen):
        gen.standard_normal(2 * e * e)
        return scalar(e, gen)

    monkeypatch.setattr(entropy_module, "haar_unitaries", garbage)
    monkeypatch.setattr(entropy_module, "haar_unitary", retries_once)
    calls = iter(range(1 + CLIMB_REFINE_STEPS))

    def objective(factors):
        return -float(next(calls)) - (np.arange(CLIMB_RESTARTS) == 2)

    source = RandomSource(62)
    _, (found,) = climb_product_basis(objective, [np.eye(2, dtype=complex)], [source])
    gen = source.derive(2).generator()
    expected = retries_once(2, gen)
    for _ in range(CLIMB_REFINE_STEPS):
        g = gen.standard_normal((2, 2, 2))
        a = g[0] + 1j * g[1]
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
        expected = expected @ (v * np.exp(1j * CLIMB_STEP_SCALE * w)) @ v.conj().T
    assert np.abs(found - expected).max() <= 1e-12
