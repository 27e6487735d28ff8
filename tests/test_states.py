import math
import warnings

import numpy as np
import pytest

from qudit_epi.errors import QuditEpiError, ValidationError
from qudit_epi.measurement import check_complete, condition_all_stack
from qudit_epi.rand import RandomSource
from qudit_epi.states import make_density, make_density_stack

from oracles import (
    eigenvalues_descending,
    matrix_distance,
    multipartite,
    partial_trace,
    permute_subsystems,
    sample_state,
    tensor,
)


def test_make_density_maximally_mixed():
    rho = make_density(np.eye(2) / 2)
    assert rho.dim == 2
    assert np.allclose(rho.mat, np.eye(2) / 2)


def test_make_density_pure():
    rho = make_density([[1, 0], [0, 0]])
    assert np.allclose(rho.mat, np.diag([1.0, 0.0]))


def test_make_density_rejects_indefinite():
    # eigenvalue by the quadratic formula: (1 - sqrt(1.04)) / 2 = -0.0099...
    with pytest.raises(ValidationError, match="smallest eigenvalue") as err:
        make_density([[0.6, 0.5], [0.5, 0.4]])
    assert "-9.90195" in str(err.value)  # measured deviation is reported


def test_make_density_rejects_non_hermitian_and_bad_trace():
    with pytest.raises(ValidationError, match=r"max\|m - m†\| = 1\.000e\+00"):
        make_density([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(ValidationError, match=r"\|Tr m - 1\| = 1\.000e\+00"):
        make_density(np.eye(2))


@pytest.mark.parametrize("d", [2, 3, 8, 36])
@pytest.mark.parametrize("kind", ["ginibre", "pure"])
def test_make_density_is_bitwise_idempotent(d, kind):
    # A validated state is exactly Hermitian, so validating it again returns
    # the same matrix bit for bit; the conjecture search relies on this and
    # does not recompute a candidate from re-symmetrized input.
    gen = RandomSource(23, d).generator()
    for _ in range(10):
        rho = sample_state(gen, d, kind)
        assert np.array_equal(make_density(rho.mat).mat, rho.mat)
        mixed = make_density(0.5 * rho.mat + 0.5 * sample_state(gen, d).mat)
        assert np.array_equal(make_density(mixed.mat).mat, mixed.mat)


def test_make_density_stack_matches_make_density():
    gen = RandomSource(3).generator()
    g = gen.standard_normal((6, 4, 4)) + 1j * gen.standard_normal((6, 4, 4))
    m = g @ g.conj().swapaxes(1, 2)
    m = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    m[0] = np.diag([1.0, 0.0, 0.0, 0.0])  # exact zeros in the spectrum
    m[1, 0, 1] += 1e-13  # hermiticity round-off below tol
    sym, lam = make_density_stack(m)
    for i in range(len(m)):
        rho = make_density(m[i])
        assert np.array_equal(sym[i], rho.mat)
        assert repr(lam[i].tolist()) == repr(eigenvalues_descending(rho).tolist())


@pytest.mark.parametrize(
    "bad",
    [[[0.5, 1.0], [0.0, 0.5]], np.eye(2), [[0.6, 0.5], [0.5, 0.4]]],
    ids=["non-hermitian", "trace", "indefinite"],
)
def test_make_density_stack_raises_first_bad_row_as_make_density(bad):
    good = np.eye(2) / 2
    with pytest.raises(ValidationError) as scalar:
        make_density(bad)
    with pytest.raises(ValidationError) as stacked:
        make_density_stack(np.array([good, bad, good], dtype=complex))
    assert str(stacked.value) == str(scalar.value)


def test_make_density_stack_checks_the_spectrum_total():
    # 23 eigenvalues of -0.99e-10 pass the positivity check, and the trace is
    # 1; clipped to zero they leave a total 23 x 0.99e-10 above 1.
    bad = np.diag([1.0 + 23 * 0.99e-10] + [-0.99e-10] * 23).astype(complex)
    with pytest.raises(ValidationError) as stacked:
        make_density_stack(np.stack([np.eye(24) / 24, bad]))
    assert str(stacked.value) == "spectrum sums to 1.000000002277, off by more than 1.0e-09"
    with pytest.raises(ValidationError) as one:
        eigenvalues_descending(make_density(bad))
    assert str(one.value) == str(stacked.value)


def test_make_density_symmetrizes_roundoff():
    base = np.array([[0.5, 0.1 + 1e-13j], [0.1, 0.5]])
    rho = make_density(base)
    assert matrix_distance(rho.mat, rho.mat.conj().T) == 0.0


def test_tensor_examples():
    half = make_density(np.eye(2) / 2)
    assert np.allclose(tensor(half, half).mat, np.eye(4) / 4)
    zero = make_density(np.diag([1.0, 0.0]))
    one = make_density(np.diag([0.0, 1.0]))
    assert np.allclose(tensor(zero, one).mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_trace_multiplicative():
    gen = RandomSource(8).generator()
    a = sample_state(gen, 3)
    b = sample_state(gen, 2)
    assert np.trace(tensor(a, b).mat).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_recovers_factors():
    gen = RandomSource(9).generator()
    a = sample_state(gen, 3)
    b = sample_state(gen, 4)
    s = multipartite(tensor(a, b), (3, 4))
    assert matrix_distance(partial_trace(s, (0,)).state.mat, a.mat) <= 5e-12
    assert matrix_distance(partial_trace(s, (1,)).state.mat, b.mat) <= 5e-12


def test_partial_trace_bell_marginal(bell):
    s = multipartite(bell, (2, 2))
    assert matrix_distance(partial_trace(s, (0,)).state.mat, np.eye(2) / 2) < 1e-12


def test_partial_trace_basis_ordering():
    # |01><01| on dims (2, 2): keeping the first leg leaves |0><0|
    s = multipartite(make_density(np.diag([0.0, 1.0, 0.0, 0.0])), (2, 2))
    assert np.allclose(partial_trace(s, (0,)).state.mat, np.diag([1.0, 0.0]))


def test_partial_trace_bad_subset():
    s = multipartite(make_density(np.eye(4) / 4), (2, 2))
    with pytest.raises(QuditEpiError, match="must be a nonempty proper subset"):
        partial_trace(s, ())
    with pytest.raises(QuditEpiError, match="must be a nonempty proper subset"):
        partial_trace(s, (0, 1))
    with pytest.raises(QuditEpiError, match="out of range for 2 subsystems"):
        partial_trace(s, (2,))


def test_permute_identity_and_swap():
    gen = RandomSource(10).generator()
    a = sample_state(gen, 2)
    b = sample_state(gen, 3)
    s = multipartite(tensor(a, b), (2, 3))
    same = permute_subsystems(s, (0, 1))
    assert np.array_equal(same.state.mat, s.state.mat)
    swapped = permute_subsystems(s, (1, 0))
    assert swapped.dims == (3, 2)
    assert matrix_distance(swapped.state.mat, np.kron(b.mat, a.mat)) < 1e-14
    back = permute_subsystems(swapped, (1, 0))
    assert np.array_equal(back.state.mat, s.state.mat)


def test_permute_preserves_spectrum():
    gen = RandomSource(11).generator()
    s = multipartite(sample_state(gen, 12), (2, 3, 2))
    perm = (2, 0, 1)
    before = eigenvalues_descending(s.state)
    after = eigenvalues_descending(make_density(permute_subsystems(s, perm).state.mat))
    assert np.abs(before - after).max() <= 1e-11


def test_permute_rejects_non_permutation():
    s = multipartite(make_density(np.eye(4) / 4), (2, 2))
    with pytest.raises(QuditEpiError, match="is not a permutation"):
        permute_subsystems(s, (0, 0))


def test_eigenvalues_descending_examples():
    assert np.allclose(eigenvalues_descending(make_density(np.eye(3) / 3)), [1 / 3] * 3)
    plus = make_density(np.full((2, 2), 0.5))
    assert np.allclose(eigenvalues_descending(plus), [1.0, 0.0], atol=1e-12)
    worked = make_density([[0.75, (1 - 1j) / 4], [(1 + 1j) / 4, 0.25]])
    vals = eigenvalues_descending(worked)
    assert vals[0] == pytest.approx(0.5 + math.sqrt(3) / 4, abs=1e-12)
    assert vals[1] == pytest.approx(0.5 - math.sqrt(3) / 4, abs=1e-12)


def test_spectrum_clipping_and_order():
    gen = RandomSource(12).generator()
    for _ in range(20):
        vals = eigenvalues_descending(sample_state(gen, 5, "rank", rank=2))
        assert not vals.flags.writeable
        assert np.all(np.diff(vals) <= 0)
        assert vals.min() >= 0.0
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)


_NAN = np.full((2, 2), np.nan + 0j)
# m - m† is inf - inf = NaN off the diagonal.
_INF = np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex)
_NEGINF = np.array([[0.5, -np.inf], [-np.inf, 0.5]], dtype=complex)
_HERMITICITY = r"max\|m - m†\| = nan exceeds tol"
_NON_FINITE = [
    (make_density, _NAN, _HERMITICITY),
    (make_density, _INF, _HERMITICITY),
    (make_density, _NEGINF, _HERMITICITY),
    (make_density_stack, _NAN[None], _HERMITICITY),
    (make_density_stack, np.stack([np.eye(2) / 2, _INF]), _HERMITICITY),
    (make_density_stack, _NEGINF[None], _HERMITICITY),
    (check_complete, _NAN, r"max\|U†U - I\| = nan"),
    (check_complete, np.stack([np.eye(2), _INF]), r"max\|U†U - I\| = nan"),
    (lambda rho: condition_all_stack(rho.reshape(1, 2, 1, 2, 1), np.eye(1)), _NAN, r"outcome probabilities sum to nan"),
]


@pytest.mark.parametrize(
    "check, entries, message",
    _NON_FINITE,
    ids=[
        "density-nan", "density-inf", "density-neginf", "stack-nan", "stack-inf", "stack-neginf",
        "complete-nan", "complete-inf", "condition-nan",
    ],
)
def test_checks_reject_nan_and_inf(check, entries, message):
    # A NaN fails every comparison, so each check fails unless its deviation
    # is within tolerance.
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match=message):
        check(entries)


def test_condition_all_stack_checks_totals_before_dividing():
    # An all-NaN state fails its outcome total before any block is divided by
    # its probability, so numpy warns of no invalid division on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^outcome probabilities sum to nan$"):
            condition_all_stack(_NAN.reshape(1, 2, 1, 2, 1), np.eye(1))


def test_matrix_distance():
    a = np.diag([1.0, 0.0])
    assert matrix_distance(a, a) == 0.0
    assert matrix_distance(a, np.diag([0.0, 1.0])) == 1.0
    assert matrix_distance(a, a + 1e-13 * np.eye(2)) == pytest.approx(1e-13)
    with pytest.raises(QuditEpiError, match=r"shapes \(2, 2\) and \(3, 3\) differ"):
        matrix_distance(np.eye(2), np.eye(3))


def test_multipartite_dimension_check():
    with pytest.raises(QuditEpiError, match=r"product\(dims\)=6 != state dim 4"):
        multipartite(make_density(np.eye(4) / 4), (2, 3))


def test_ginibre_mean_purity_matches_hilbert_schmidt_value():
    # Known mean purity of G G†/Tr for square Ginibre G is 2d/(d^2+1),
    # 4/5 at d=2; frozen from a pre-build Monte Carlo oracle.
    gen = RandomSource(20240807).generator()
    total = 0.0
    n = 10_000
    for _ in range(n):
        rho = sample_state(gen, 2, "ginibre")
        total += float(np.trace(rho.mat @ rho.mat).real)
    assert total / n == pytest.approx(0.8, abs=0.01)
