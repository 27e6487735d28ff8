import math

import numpy as np
import pytest

from qudit_epi.entropy import (
    OptimizerConfig,
    conditional_vn_entropy,
    entropy_power,
    expected_entropy_power,
    kappa_bounds,
    majorizes,
    minimize_conditional_entropy_power,
    shannon_entropy,
    von_neumann_entropy,
)
from qudit_epi.errors import QuditEpiError, ValidationError
from qudit_epi.measurement import ConditionalOutcome
from qudit_epi.rand import RandomSource, sample_state
from qudit_epi.states import make_density, multipartite, tensor


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


def _opt_cfg(seed, **kw):
    return OptimizerConfig(rng=RandomSource(seed), **kw)


@pytest.mark.parametrize("env_dims", [(3,), (2, 3)], ids=["one-env", "two-envs"])
def test_optimizer_product_state_is_exact(env_dims):
    # x (x) e1 (x) ... (x) en: the climb over product bases U1 (x) ... (x) Un is exact.
    gen = RandomSource(56).generator()
    x = sample_state(gen, 2)
    joint = x
    for de in env_dims:
        joint = tensor(joint, sample_state(gen, de))
    s = multipartite(joint, (2, *env_dims))
    value, basis = minimize_conditional_entropy_power(s, 1.0, _opt_cfg(1, restarts=2, refine_steps=4))
    assert value == pytest.approx(entropy_power(x, 1.0), abs=1e-10)
    assert basis.shape == (math.prod(env_dims),) * 2


def test_optimizer_kappa_zero_returns_one(bell):
    s = multipartite(bell, (2, 2))
    value, _ = minimize_conditional_entropy_power(s, 0.0, _opt_cfg(2, restarts=2, refine_steps=2))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_optimizer_bell_fixture(bell):
    # pre-build brute-force scan over qubit bases: every basis yields 1.0
    s = multipartite(bell, (2, 2))
    value, _ = minimize_conditional_entropy_power(s, 1.0, _opt_cfg(3, restarts=4, refine_steps=8))
    assert value <= 1.0 + 1e-9
    assert value >= 1.0 - 1e-9


def test_optimizer_deterministic():
    gen = RandomSource(57).generator()
    s = multipartite(sample_state(gen, 6), (2, 3))
    a = minimize_conditional_entropy_power(s, 1.0, _opt_cfg(4, restarts=3, refine_steps=6))
    b = minimize_conditional_entropy_power(s, 1.0, _opt_cfg(4, restarts=3, refine_steps=6))
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(rng=RandomSource(1), restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(rng=RandomSource(1), step_scale=0.0)
