import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudit_epi.channels import partial_swap_closed_stack, partial_swap_global
from qudit_epi.errors import QuditEpiError, ValidationError
from qudit_epi.states import make_density

from oracles import (
    RandomSource,
    _bilocal_channel,
    eigenvalues_descending,
    matrix_distance,
    multipartite,
    partial_swap_closed,
    partial_swap_conjugation,
    partial_swap_global_closed,
    partial_swap_joint,
    partial_swap_joint_stack,
    partial_swap_unitary,
    partial_trace,
    permute_subsystems,
    sample_state,
    swap_operator,
    tensor,
)


def test_swap_operator_action():
    w = swap_operator(2)
    ket01 = np.zeros(4)
    ket01[1] = 1.0  # |01>
    ket10 = np.zeros(4)
    ket10[2] = 1.0  # |10>
    assert np.allclose(w @ ket01, ket10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_operator_involution_and_trace(d):
    w = swap_operator(d)
    assert np.array_equal(w @ w, np.eye(d * d).astype(complex))
    assert np.trace(w).real == pytest.approx(d)
    assert matrix_distance(w, w.conj().T) == 0.0


def test_partial_swap_unitary_endpoints():
    assert np.array_equal(partial_swap_unitary(2, 1.0), np.eye(4).astype(complex))
    assert np.array_equal(partial_swap_unitary(2, 0.0), 1j * swap_operator(2))


@pytest.mark.parametrize("tau", [0.25, 0.5, 0.9])
def test_partial_swap_unitary_is_unitary(tau):
    u = partial_swap_unitary(2, tau)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize("tau", [0.25, 0.5, 0.9])
def test_partial_swap_unitary_disentangles_counterexample(tau):
    # sqrt(tau)|01> - i sqrt(1-tau)|10> maps to the product |01>: the swap
    # lowers the entropy of correlated inputs (README, conjecture search).
    psi = np.zeros(4, dtype=complex)
    psi[1] = math.sqrt(tau)
    psi[2] = -1j * math.sqrt(1.0 - tau)
    ket01 = np.zeros(4, dtype=complex)
    ket01[1] = 1.0
    assert np.abs(partial_swap_unitary(2, tau) @ psi - ket01).max() <= 1e-15


def test_closed_endpoints(zero, plus):
    assert np.array_equal(partial_swap_closed(zero, plus, 1.0).mat, zero.mat)
    assert np.array_equal(partial_swap_closed(zero, plus, 0.0).mat, plus.mat)


def test_closed_worked_example(zero, plus):
    out = partial_swap_closed(zero, plus, 0.5)
    want = np.array([[0.75, 0.25 - 0.25j], [0.25 + 0.25j, 0.25]])
    assert matrix_distance(out.mat, want) < 1e-15
    # cross-checked against the conjugation oracle
    assert matrix_distance(out.mat, partial_swap_conjugation(zero, plus, 0.5).mat) <= 1e-12


def test_closed_commuting_inputs():
    r1 = make_density(np.diag([0.7, 0.3]))
    r2 = make_density(np.diag([0.2, 0.8]))
    for tau in (0.3, 0.6):
        out = partial_swap_closed(r1, r2, tau)
        assert matrix_distance(out.mat, tau * r1.mat + (1 - tau) * r2.mat) < 1e-15


def test_closed_dimension_mismatch():
    a = make_density(np.eye(2) / 2)
    b = make_density(np.eye(3) / 3)
    with pytest.raises(QuditEpiError, match="input dims differ: 2 vs 3"):
        partial_swap_closed(a, b, 0.5)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_vs_conjugation_random(d):
    gen = RandomSource(30, d).generator()
    for _ in range(25):
        r1 = sample_state(gen, d)
        r2 = sample_state(gen, d)
        tau = float(gen.uniform())
        got = partial_swap_closed(r1, r2, tau)
        want = partial_swap_conjugation(r1, r2, tau)
        assert matrix_distance(got.mat, want.mat) <= 1e-12


def test_unitality():
    half = make_density(np.eye(4) / 4)
    out = partial_swap_closed(half, half, 0.37)
    assert matrix_distance(out.mat, np.eye(4) / 4) <= 1e-12


def _random_joint(gen, d, e):
    return multipartite(sample_state(gen, d * e), (d, e))


def test_global_trivial_environments(zero, plus):
    s1 = multipartite(zero, (2, 1))
    s2 = multipartite(plus, (2, 1))
    out = _bilocal_channel(s1, s2, 0.5)
    assert out.dims == (2, 1, 1)
    assert matrix_distance(out.state.mat, partial_swap_closed(zero, plus, 0.5).mat) <= 1e-12


def test_global_tau_one_returns_first_input():
    gen = RandomSource(31).generator()
    s1 = _random_joint(gen, 2, 2)
    s2 = _random_joint(gen, 2, 3)
    out = _bilocal_channel(s1, s2, 1.0)
    rho_e2 = partial_trace(s2, (1,)).state
    want = np.kron(s1.state.mat, rho_e2.mat)
    assert matrix_distance(out.state.mat, want) <= 1e-12


@pytest.mark.parametrize("d,e1,e2", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 3)])
def test_global_vs_global_closed(d, e1, e2):
    gen = RandomSource(32, d * 100 + e1 * 10 + e2).generator()
    for _ in range(10):
        s1 = _random_joint(gen, d, e1)
        s2 = _random_joint(gen, d, e2)
        tau = float(gen.uniform())
        a = _bilocal_channel(s1, s2, tau)
        b = partial_swap_global_closed(s1, s2, tau)
        assert a.dims == (d, e1, e2)
        assert matrix_distance(a.state.mat, b.state.mat) <= 1e-11


def test_global_marginal_consistency_on_products():
    # For product inputs rho_X ⊗ rho_E the X-marginal of the global output
    # equals the closed form on the X-marginals.
    gen = RandomSource(33).generator()
    x1 = sample_state(gen, 2)
    e1 = sample_state(gen, 2)
    x2 = sample_state(gen, 2)
    e2 = sample_state(gen, 3)
    s1 = multipartite(tensor(x1, e1), (2, 2))
    s2 = multipartite(tensor(x2, e2), (2, 3))
    out = _bilocal_channel(s1, s2, 0.42)
    got = partial_trace(out, (0,)).state
    want = partial_swap_closed(x1, x2, 0.42)
    assert matrix_distance(got.mat, want.mat) <= 1e-11


@pytest.mark.parametrize("d", [2, 3])
def test_joint_trivial_environment_matches_conjugation(d):
    gen = RandomSource(35, d).generator()
    for tau in (0.0, 0.3, 0.5, 1.0):
        r1 = sample_state(gen, d)
        r2 = sample_state(gen, d)
        out = partial_swap_joint(multipartite(tensor(r1, r2), (d, d, 1)), tau)
        assert out.dims == (d, 1)
        assert matrix_distance(out.state.mat, partial_swap_conjugation(r1, r2, tau).mat) <= 1e-12


def _permuted_product(s1, s2):
    """The product of an (X1, E1) and an (X2, E2) state, on (X1, X2, E1, E2)."""
    (d, e1), (_, e2) = s1.dims, s2.dims
    both = multipartite(tensor(s1.state, s2.state), (d, e1, d, e2))  # (X1,E1,X2,E2)
    return permute_subsystems(both, (0, 2, 1, 3))


def _dense_global(s1, s2, tau):
    """The dense route: conjugate the permuted product (X1, X2, E1, E2) by
    the partial swap on (X1, X2), then trace out X2."""
    return partial_swap_joint(_permuted_product(s1, s2), tau)


def _joint_stack_global(s1, s2, tau):
    """The stacked joint route on the permuted product, its environment
    E1 E2 taken as one: the (Y, E1, E2) output matrix."""
    joint = _permuted_product(s1, s2).state.mat[None]
    states, _ = partial_swap_joint_stack(joint, np.array([tau]), s1.dims[0])
    return states[0, 0]


@pytest.mark.parametrize("d,e", [(2, 1), (2, 2), (3, 2), (2, 4)])
def test_joint_stack_matches_dense_conjugation_on_entangled_states(d, e):
    # Ginibre and pure joint states are entangled across X1, X2 and E; an odd
    # stack with both endpoints of tau. The output and both marginals match
    # the dense conjugation and partial traces of each state alone.
    gen = RandomSource(38, d * 10 + e).generator()
    kinds = ["ginibre", "pure"] * 3 + ["pure"]
    joints = [multipartite(sample_state(gen, d * d * e, kind), (d, d, e)) for kind in kinds]
    taus = np.concatenate([[0.0, 1.0], gen.random(len(joints) - 2)])
    states, spectra = partial_swap_joint_stack(np.stack([s.state.mat for s in joints]), taus, d)
    assert states.shape == (3, len(joints), d * e, d * e) and spectra.shape == (3, len(joints), d * e)
    for state, spectrum in zip(states.reshape(-1, d * e, d * e), spectra.reshape(-1, d * e)):
        # A validated state is exactly Hermitian, so make_density returns it unchanged.
        assert repr(spectrum.tolist()) == repr(eigenvalues_descending(make_density(state)).tolist())
    for i, (s, tau) in enumerate(zip(joints, taus)):
        assert matrix_distance(states[0, i], partial_swap_joint(s, tau).state.mat) <= 1e-12
        assert matrix_distance(states[1, i], partial_trace(s, (0, 2)).state.mat) <= 1e-12
        assert matrix_distance(states[2, i], partial_trace(s, (1, 2)).state.mat) <= 1e-12


def test_joint_stack_rejects_mismatched_stacks():
    rho = np.stack([np.eye(8) / 8] * 2).astype(complex)
    with pytest.raises(QuditEpiError, match=r"expected an \(1, 2\*2\*e, 2\*2\*e\) joint stack"):
        partial_swap_joint_stack(rho, np.array([0.5]), 2)
    with pytest.raises(QuditEpiError, match=r"expected an \(2, 3\*3\*e, 3\*3\*e\) joint stack"):
        partial_swap_joint_stack(rho, np.array([0.5, 0.5]), 3)
    with pytest.raises(ValidationError, match=r"mixing parameters must be in \[0, 1\], got \[nan\]"):
        partial_swap_joint_stack(rho, np.array([0.5, np.nan]), 2)


@pytest.mark.parametrize("d,e1,e2", [(2, 2, 2), (2, 2, 3), (3, 2, 1)])
def test_joint_on_product_inputs_matches_global_closed(d, e1, e2):
    gen = RandomSource(36, d * 100 + e1 * 10 + e2).generator()
    for _ in range(5):
        s1 = _random_joint(gen, d, e1)
        s2 = _random_joint(gen, d, e2)
        tau = float(gen.uniform())
        out = _dense_global(s1, s2, tau)
        assert out.dims == (d, e1, e2)
        assert matrix_distance(out.state.mat, partial_swap_global_closed(s1, s2, tau).state.mat) <= 1e-12


def test_joint_system_dims_must_match():
    s = multipartite(make_density(np.eye(12) / 12), (2, 3, 2))
    with pytest.raises(QuditEpiError, match="system dims differ: 2 vs 3"):
        partial_swap_joint(s, 0.5)


def test_channel_outputs_are_valid_states():
    gen = RandomSource(34).generator()
    for d in (2, 3, 4, 5):
        for _ in range(10):
            r1 = sample_state(gen, d)
            r2 = sample_state(gen, d, "pure")
            tau = float(gen.uniform())
            out = partial_swap_closed(r1, r2, tau)  # make_density validates
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d=st.integers(2, 6),
    envs=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    kinds=st.tuples(*[st.sampled_from(["ginibre", "pure"])] * 2),
    tau=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_global_kernel_matches_dense_and_extended_operator_routes(seed, d, envs, kinds, tau):
    e1, e2 = envs
    gen = RandomSource(seed).generator()
    s1 = multipartite(sample_state(gen, d * e1, kinds[0]), (d, e1))
    s2 = multipartite(sample_state(gen, d * e2, kinds[1]), (d, e2))
    out = _bilocal_channel(s1, s2, tau)
    assert out.dims == (d, e1, e2)
    assert matrix_distance(out.state.mat, _dense_global(s1, s2, tau).state.mat) <= 1e-12
    assert matrix_distance(out.state.mat, partial_swap_global_closed(s1, s2, tau).state.mat) <= 1e-12
    assert matrix_distance(out.state.mat, _joint_stack_global(s1, s2, tau)) <= 1e-12


@pytest.mark.parametrize("d,e1,e2", [(2, 2, 2), (3, 1, 4), (4, 3, 2), (6, 4, 4)])
def test_global_kernel_rows_equal_one_row_calls(d, e1, e2):
    # An odd stack with both endpoints: each row is bit for bit its N = 1 call.
    gen = RandomSource(37, d * 100 + e1 * 10 + e2).generator()
    n = 7
    rho1 = np.stack([sample_state(gen, d * e1).mat for _ in range(n)])
    rho2 = np.stack([sample_state(gen, d * e2, "pure").mat for _ in range(n)])
    taus = np.concatenate([[0.0, 1.0], gen.random(n - 2)])
    out, lam = partial_swap_global(rho1, rho2, taus, d)
    assert out.shape == (n, d * e1 * e2, d * e1 * e2)
    for i in range(n):
        one, one_lam = partial_swap_global(rho1[i : i + 1], rho2[i : i + 1], taus[i : i + 1], d)
        assert np.array_equal(one[0], out[i])
        assert np.array_equal(one_lam[0], lam[i])
        assert repr(lam[i].tolist()) == repr(eigenvalues_descending(make_density(out[i])).tolist())


def test_global_kernel_rejects_mismatched_stacks():
    rho = np.stack([np.eye(4) / 4] * 2).astype(complex)
    with pytest.raises(QuditEpiError, match=r"expected \(2, 2\*e, 2\*e\) input stacks"):
        partial_swap_global(rho, rho[:1], np.array([0.5, 0.5]), 2)
    with pytest.raises(QuditEpiError, match=r"expected \(2, 3\*e, 3\*e\) input stacks"):
        partial_swap_global(rho, rho, np.array([0.5, 0.5]), 3)
    with pytest.raises(ValidationError, match=r"mixing parameters must be in \[0, 1\], got \[1\.5\]"):
        partial_swap_global(rho, rho, np.array([0.5, 1.5]), 2)
    # A NaN fails every comparison: the message names it.
    with pytest.raises(ValidationError, match=r"mixing parameters must be in \[0, 1\], got \[nan\]"):
        partial_swap_global(rho, rho, np.array([np.nan, 0.5]), 2)
    with pytest.raises(ValidationError, match=r"mixing parameters must be in \[0, 1\], got \[nan\]"):
        partial_swap_closed_stack(rho, rho, np.array([np.nan, 0.5]))
