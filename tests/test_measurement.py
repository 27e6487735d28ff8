import functools
import operator

import numpy as np
import pytest

from qudit_epi.errors import QuditEpiError, ValidationError
from qudit_epi.measurement import check_complete, condition_all_stack
from qudit_epi.rand import haar_unitary
from qudit_epi.states import DensityMatrix, make_density, ordered_sum

from oracles import (
    ConditionalOutcome,
    MultipartiteState,
    RandomSource,
    _sum_in_order,
    condition_all,
    condition_bilocal,
    conditional_spectrum,
    matrix_distance,
    multipartite,
    partial_trace,
    projective_from_unitary,
    sample_state,
    tensor,
)


def _projector(m, j):
    return np.outer(m.basis[:, j], m.basis[:, j].conj())


def test_projective_from_identity():
    m = projective_from_unitary(np.eye(2))
    assert m.dim == 2 and len(m) == 2
    assert np.allclose(_projector(m, 0), np.diag([1.0, 0.0]))
    assert np.allclose(_projector(m, 1), np.diag([0.0, 1.0]))


def test_projective_from_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    m = projective_from_unitary(h)
    assert np.allclose(_projector(m, 0), np.full((2, 2), 0.5))
    assert np.allclose(_projector(m, 1), [[0.5, -0.5], [-0.5, 0.5]])


def test_projective_completeness_haar():
    for d in (2, 3, 4):
        u = haar_unitary(d, RandomSource(40, d).generator())
        m = projective_from_unitary(u)
        assert m.dim == d and len(m) == d
        assert np.abs(m.basis.conj().T @ m.basis - np.eye(d)).max() <= 1e-12
        total = sum(_projector(m, j) for j in range(d))
        assert np.abs(total - np.eye(d)).max() <= 1e-12


def test_projective_rejects_non_unitary():
    with pytest.raises(ValidationError, match=r"max\|U†U - I\|"):
        projective_from_unitary(np.ones((2, 2)))


def test_check_complete_names_the_first_failing_stacked_residual():
    u = haar_unitary(3, RandomSource(44).generator())
    check_complete(np.stack([u, u]))
    with pytest.raises(ValidationError) as stacked:
        check_complete(np.stack([u, 1.001 * u, np.ones((3, 3))]))
    with pytest.raises(ValidationError) as one:
        projective_from_unitary(1.001 * u)
    assert str(stacked.value) == str(one.value)


@pytest.mark.parametrize("dx, de", [(2, 1), (2, 3), (3, 4), (6, 2)])
def test_condition_all_stack_matches_condition_all(dx, de):
    gen = RandomSource(45, 10 * dx + de).generator()
    states = [multipartite(sample_state(gen, dx * de), (dx, de)) for _ in range(2)]
    # An environment in |0><0|, measured in the computational basis, leaves
    # every other outcome at probability 0.
    env = make_density(np.diag([1.0] + [0.0] * (de - 1)).astype(complex))
    states.append(multipartite(tensor(sample_state(gen, dx), env), (dx, de)))
    bases = np.stack([[np.eye(de, dtype=complex), haar_unitary(de, gen)] for _ in states])
    rho4 = np.stack([s.state.mat for s in states]).reshape(len(states), 1, dx, de, dx, de)
    probs, negligible, residuals, conditioned, spectra = condition_all_stack(rho4, bases)
    assert probs.shape == negligible.shape == (3, 2, de)
    assert residuals.shape == (3, 2)
    assert conditioned.shape == (3, 2, de, dx, dx) and spectra.shape == (3, 2, de, dx)
    for i, s in enumerate(states):
        for m, u in enumerate(bases[i]):
            outcomes = condition_all(s, projective_from_unitary(u))
            assert residuals[i, m] == abs(_sum_in_order(o.probability for o in outcomes) - 1.0)
            for j, o in enumerate(outcomes):
                assert (o.probability, o.negligible) == (probs[i, m, j], negligible[i, m, j])
                # The grid holds each kept outcome's state and spectrum, and zeros at the others.
                want = (np.zeros((dx, dx)), np.zeros(dx)) if o.negligible else (o.state.mat, conditional_spectrum(o))
                assert np.array_equal(conditioned[i, m, j], want[0])
                assert np.array_equal(spectra[i, m, j], want[1])
    assert negligible[2, 0].sum() == de - 1


def test_condition_all_stack_checks_each_probability_total():
    gen = RandomSource(46).generator()
    good = sample_state(gen, 4).mat
    bad = MultipartiteState(DensityMatrix(1.5 * sample_state(gen, 4).mat), (2, 2))
    u = haar_unitary(2, gen)
    with pytest.raises(ValidationError) as stacked:
        condition_all_stack(np.stack([good, bad.state.mat]).reshape(2, 2, 2, 2, 2), u)
    with pytest.raises(ValidationError) as one:
        condition_all(bad, projective_from_unitary(u))
    assert str(stacked.value) == str(one.value)
    assert str(one.value).startswith("outcome probabilities sum to 1.4")


def test_ordered_sum_adds_left_to_right():
    # np.sum adds pairwise and Python 3.12's sum compensates: both give 1.0.
    assert repr(float(ordered_sum(np.full(10, 0.1)))) == "0.9999999999999999"
    rows = np.random.default_rng(64).standard_normal((2000, 16))
    got = ordered_sum(rows)
    assert got.shape == (2000,)
    assert got.tolist() == [functools.reduce(operator.add, row) for row in rows.tolist()]
    assert (got != rows.sum(axis=1)).any()  # np.sum, adding pairwise, differs on some rows
    assert np.array_equal(ordered_sum(rows.reshape(2, 1000, 16)), got.reshape(2, 1000))


def test_condition_product_leaves_system_untouched():
    gen = RandomSource(41).generator()
    x = sample_state(gen, 3)
    e = sample_state(gen, 2)
    s = multipartite(tensor(x, e), (3, 2))
    m = projective_from_unitary(haar_unitary(2, gen))
    outs = condition_all(s, m)
    for j in range(2):
        out = outs[j]
        if not out.negligible:
            assert matrix_distance(out.state.mat, x.mat) <= 1e-10
    # probabilities match Tr(P_j rho_E)
    rho_e = partial_trace(s, (1,)).state.mat
    for j in range(2):
        want = float(np.trace(_projector(m, j) @ rho_e).real)
        assert outs[j].probability == pytest.approx(want, abs=1e-12)


def test_condition_bell(bell):
    s = multipartite(bell, (2, 2))
    m = projective_from_unitary(np.eye(2))
    out = condition_all(s, m)[0]
    assert out.probability == pytest.approx(0.5, abs=1e-12)
    assert matrix_distance(out.state.mat, np.diag([1.0, 0.0])) <= 1e-12


def test_condition_bad_index_and_dims(bell):
    s = multipartite(bell, (2, 2))
    m = projective_from_unitary(np.eye(2))
    outs = condition_all(s, m)
    assert len(outs) == len(m) == 2
    with pytest.raises(IndexError):
        outs[2]
    with pytest.raises(QuditEpiError, match="measurement dim 3 does not match environment dim 2"):
        condition_all(s, projective_from_unitary(np.eye(3)))
    with pytest.raises(QuditEpiError, match="expects a bipartite"):
        condition_all(multipartite(make_density(np.eye(8) / 8), (2, 2, 2)), m)


def test_condition_all_diagonal_probabilities():
    gen = RandomSource(42).generator()
    x = sample_state(gen, 2)
    e = make_density(np.diag([0.3, 0.7]))
    s = multipartite(tensor(x, e), (2, 2))
    outs = condition_all(s, projective_from_unitary(np.eye(2)))
    assert [o.probability for o in outs] == pytest.approx([0.3, 0.7], abs=1e-12)


def test_condition_all_bell_computational(bell):
    s = multipartite(bell, (2, 2))
    outs = condition_all(s, projective_from_unitary(np.eye(2)))
    assert outs[0].probability == pytest.approx(0.5, abs=1e-12)
    assert matrix_distance(outs[1].state.mat, np.diag([0.0, 1.0])) <= 1e-12


def test_condition_all_probabilities_sum_to_one():
    gen = RandomSource(43).generator()
    for d, e in [(2, 2), (3, 2), (2, 4)]:
        s = multipartite(sample_state(gen, d * e), (d, e))
        outs = condition_all(s, projective_from_unitary(haar_unitary(e, gen)))
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)


def test_bilocal_product_environments():
    gen = RandomSource(45).generator()
    y = sample_state(gen, 2)
    e1 = sample_state(gen, 2)
    e2 = sample_state(gen, 3)
    s = multipartite(tensor(tensor(y, e1), e2), (2, 2, 3))
    m1 = projective_from_unitary(haar_unitary(2, gen))
    m2 = projective_from_unitary(haar_unitary(3, gen))
    grid = condition_bilocal(s, m1, m2)
    probs = []
    for row in grid:
        for o in row:
            probs.append(o.probability)
            if not o.negligible:
                assert matrix_distance(o.state.mat, y.mat) <= 1e-10
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    # joint probabilities factorize across a product environment
    q1 = [o.probability for o in condition_all(multipartite(tensor(y, e1), (2, 2)), m1)]
    q2 = [o.probability for o in condition_all(multipartite(tensor(y, e2), (2, 3)), m2)]
    for j in range(2):
        for k in range(3):
            assert grid[j][k].probability == pytest.approx(q1[j] * q2[k], abs=1e-9)


def test_bilocal_trivial_measurements():
    # Averaging over all outcomes undoes the conditioning: sum_jk p_jk rho_jk
    # is the Y marginal, whatever the (entangled) environment state.
    gen = RandomSource(46).generator()
    s = multipartite(sample_state(gen, 12), (2, 2, 3))
    m1 = projective_from_unitary(haar_unitary(2, gen))
    m2 = projective_from_unitary(haar_unitary(3, gen))
    grid = condition_bilocal(s, m1, m2)
    assert len(grid) == 2 and all(len(row) == 3 for row in grid)
    total = sum(o.probability * o.state.mat for row in grid for o in row if not o.negligible)
    want = partial_trace(s, (0,)).state
    assert matrix_distance(total, want.mat) <= 1e-12


def test_conditional_spectrum(bell):
    s = multipartite(bell, (2, 2))
    out = condition_all(s, projective_from_unitary(np.eye(2)))[0]
    vals = conditional_spectrum(out)
    assert np.allclose(vals, [1.0, 0.0], atol=1e-12)
    assert not vals.flags.writeable
    ghost = ConditionalOutcome(3, 0.0, None)
    with pytest.raises(QuditEpiError, match="outcome 3 has probability 0.0"):
        conditional_spectrum(ghost)
