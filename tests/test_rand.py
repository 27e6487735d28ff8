import math
import warnings

import numpy as np
import pytest

from qudit_epi import rand
from qudit_epi.errors import QuditEpiError, UsageError
from qudit_epi.rand import (
    KeyedStreams,
    complex_gaussians,
    derived_indices,
    haar_unitaries,
    haar_unitary,
    normal_count,
    normalize_state_kind,
    state_columns,
    states_from_gaussians,
)

import oracles
from oracles import RandomSource, complex_gaussian, eigenvalues_descending, random_state, sample_state


def test_streams_replay_exactly():
    a = RandomSource(1, 0).generator().standard_normal(8)
    b = RandomSource(1, 0).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RandomSource(1, 0).generator().standard_normal(8)
    b = RandomSource(1, 1).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def _mixed_draws(gen):
    # float32 draws use half of a 64-bit word and cache the other half.
    return (gen.random(3, dtype=np.float32).tolist(), gen.standard_normal(5).tolist(), gen.uniform())


def test_keyed_streams_replay_fresh_generators():
    for master_seed in (9, 2**64 - 1):
        streams = KeyedStreams(master_seed)
        for stream in (5, 2**40 + 1, 5, 0, 2**63, 2**64 - 1):
            # Each re-key starts clean even after an odd number of 32-bit draws.
            fresh = RandomSource(master_seed, stream).generator()
            assert _mixed_draws(streams.at(stream)) == _mixed_draws(fresh), (master_seed, stream)


def test_random_draws_what_uniform_draws():
    # harness._draw_tau draws tau by gen.random(): uniform() with its defaults
    # returns 0 + 1 * the same double and leaves the stream at the same place.
    a, b = RandomSource(3, 21).generator(), RandomSource(3, 21).generator()
    for _ in range(2000):
        assert a.uniform() == b.random()
    assert np.array_equal(a.uniform(size=200_000), b.random(200_000))
    assert np.array_equal(a.standard_normal(8), b.standard_normal(8))


def test_derive_is_deterministic_and_sensitive():
    rs = RandomSource(7, 3)
    assert rs.derive(2, 5) == rs.derive(2, 5)
    assert rs.derive(2, 5) != rs.derive(5, 2)
    assert rs.derive(0) != rs


def test_derived_indices_equal_the_derive_chains():
    # Stream indices at both ends and the middle of uint64: the array mix
    # wraps mod 2^64 as the int path masks, and warns nothing.
    streams = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chains = derived_indices(streams[:, None, None], np.arange(3, dtype=np.uint64)[:, None], np.arange(4, dtype=np.uint64))
        single = derived_indices(streams, 7)
    sources = [RandomSource(5, s) for s in streams.tolist()]
    assert chains.dtype == single.dtype == np.uint64
    assert chains.tolist() == [[[src.derive(t, r).stream_index for r in range(4)] for t in range(3)] for src in sources]
    assert single.tolist() == [src.derive(7).stream_index for src in sources]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_haar_unitary_is_unitary(d):
    u = haar_unitary(d, RandomSource(13, d).generator())
    assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12
    if d == 1:
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_columns_resolve_identity():
    u = haar_unitary(4, RandomSource(14).generator())
    total = sum(np.outer(u[:, j], u[:, j].conj()) for j in range(4))
    assert np.abs(total - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_haar_unitary_equals_the_reference(d):
    # The batched check on one matrix draws what the one-matrix QR of
    # tests/oracles.py draws, signed zeros too.
    for i in range(300):
        u = haar_unitary(d, RandomSource(12, i).generator())
        expected = oracles.haar_unitary(d, RandomSource(12, i).generator())
        assert repr(u.tolist()) == repr(expected.tolist())


_SHAPES = [(2, 3), (1, 1), (4, 2), (3, 3), (1, 4)]


def test_complex_gaussians_read_what_complex_gaussian_draws():
    # Rows of normals over two leading axes, with a tail that no shape reads.
    count = normal_count(_SHAPES)
    assert count == 2 * (6 + 1 + 8 + 9 + 4)
    streams = [RandomSource(22, i) for i in range(6)]
    normals = np.stack([s.generator().standard_normal(count + 5) for s in streams]).reshape(2, 3, count + 5)
    stacks = complex_gaussians(normals, _SHAPES)
    assert [g.shape for g in stacks] == [(2, 3, *shape) for shape in _SHAPES]
    for row, s in zip(np.ndindex(2, 3), streams):
        gen = s.generator()
        for g, shape in zip(stacks, _SHAPES):
            assert np.array_equal(g[row], complex_gaussian(gen, *shape))


def _haar_rows(seed, lead, start, dims, tail):
    """(*lead, L) rows of normals, row i the first L of stream (seed, i):
    `start` normals, the Haar block of `dims`, and `tail` normals."""
    count = start + normal_count([(e, e) for e in dims]) + tail
    rows = [RandomSource(seed, i).generator().standard_normal(count) for i in range(math.prod(lead))]
    return np.stack(rows).reshape(*lead, count)


def _reference_haar(source, start, dims, tail):
    """The one-row draw: skip `start` normals, draw each factor by the
    reference haar_unitary, then `tail` normals."""
    gen = source.generator()
    gen.standard_normal(start)
    return [oracles.haar_unitary(e, gen) for e in dims], gen.standard_normal(tail)


def _no_replay(row):
    raise AssertionError(f"row {row} was replayed")


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (4,), (2, 3), (4, 1, 2)], ids=["1", "2", "3", "4", "2-3", "4-1-2"])
def test_stacked_haar_rows_equal_haar_unitary(dims):
    # One batched QR per factor gives each row what the reference draws from
    # the row's stream after `start` normals; no row is replayed, and the
    # tails stay as drawn.
    lead, start, tail = (4, 10), 3, 5
    normals = _haar_rows(19, lead, start, dims, tail)
    drawn = normals.copy()
    stacks = haar_unitaries(normals, start, dims, _no_replay)
    assert [u.shape for u in stacks] == [(*lead, e, e) for e in dims]
    assert np.array_equal(normals, drawn)
    for i, row in enumerate(np.ndindex(lead)):
        expected, _ = _reference_haar(RandomSource(19, i), start, dims, tail)
        for u, want in zip(stacks, expected):
            assert repr(u[row].tolist()) == repr(want.tolist())  # signed zeros too


def test_stacked_haar_flags_rows_that_fail_the_checks():
    g = complex_gaussian(RandomSource(20).generator(), 3, 3)
    singular = g.copy()
    singular[:, 1] = 0.0  # R gets a zero diagonal entry
    _, ok = rand._haar_checked(np.stack([g, singular, g]))
    assert ok.tolist() == [True, False, True]


def test_a_singular_row_is_replayed_from_its_stream():
    # Real input, nothing patched: row (1, 0)'s Gaussian of the second
    # factor has a zero column, so R's diagonal holds a 0 and the row fails.
    # It is redrawn from its reopened stream after `start` normals, and its
    # tail (here garbage) is redrawn after the Haar draws.
    lead, start, dims, tail = (2, 3), 4, (2, 3), 6
    normals = _haar_rows(23, lead, start, dims, tail)
    column = np.zeros(normals.shape[-1], dtype=bool)
    column[start + 8 : start + 8 + 18].reshape(2, 3, 3)[:, :, 1] = True  # both halves of column 1
    normals[1, 0, column] = 0.0
    normals[1, 0, -tail:] = np.nan
    drawn = normals.copy()
    reopened = []

    def reopen(row):
        reopened.append(row)
        return RandomSource(23, np.ravel_multi_index(row, lead)).generator()

    stacks = haar_unitaries(normals, start, dims, reopen)
    assert reopened == [(1, 0)]
    for i, row in enumerate(np.ndindex(lead)):
        expected, expected_tail = _reference_haar(RandomSource(23, i), start, dims, tail)
        for u, want in zip(stacks, expected):
            assert np.array_equal(u[row], want)
        if row == (1, 0):
            assert np.array_equal(normals[row][-tail:], expected_tail)
            assert np.array_equal(normals[row][:-tail], drawn[row][:-tail])
        else:
            assert np.array_equal(normals[row], drawn[row])


def test_stacked_haar_applies_haar_unitarys_tolerance(monkeypatch):
    # At a tolerance inside the spread of the residuals, a row passes the
    # batched check exactly when the reference keeps its first draw, so a
    # stream whose reference gives up fails it. A set that holds a give-up
    # stream raises as the reference does; in a set without one, a failing
    # row is replayed with the reference's retries, its tail redrawn after them.
    start, tail, n = 2, 4, 60
    normals = _haar_rows(21, (n,), start, (3,), tail)
    (g,) = complex_gaussians(normals[:, start:], [(3, 3)])
    first, _ = rand._haar_checked(g)
    residuals = np.abs(first.conj().swapaxes(-1, -2) @ first - np.eye(3)).max(axis=(-2, -1))
    tol = float(np.median(residuals))
    monkeypatch.setattr(rand, "UNITARY_TOL", tol)
    monkeypatch.setattr(oracles, "UNITARY_TOL", tol)
    expected = []
    for i in range(n):
        try:
            expected.append(_reference_haar(RandomSource(21, i), start, (3,), tail))
        except QuditEpiError:  # no draw within the tolerance
            expected.append(None)
    _, ok = rand._haar_checked(g)
    assert ok.tolist() == [want is not None and np.array_equal(u, want[0][0]) for u, want in zip(first, expected)]
    kept = [i for i, want in enumerate(expected) if want is not None]
    assert len(kept) < n and 0 < ok[kept].sum() < len(kept)
    with pytest.raises(QuditEpiError, match="^no unitary within "):
        haar_unitaries(normals.copy(), start, (3,), lambda row: RandomSource(21, row[0]).generator())
    rows = normals[kept]
    (stack,) = haar_unitaries(rows, start, (3,), lambda row: RandomSource(21, kept[row[0]]).generator())
    for u, tail_normals, i in zip(stack, rows[:, -tail:], kept):
        want, want_tail = expected[i]
        assert np.array_equal(u, want[0])
        assert np.array_equal(tail_normals, want_tail)


def test_pure_state_spectrum():
    rho = random_state(4, "pure", RandomSource(15))
    vals = eigenvalues_descending(rho)
    assert np.abs(vals - np.array([1.0, 0.0, 0.0, 0.0])).max() <= 1e-10


def test_ginibre_state_valid_and_deterministic():
    a = random_state(3, "ginibre", RandomSource(16))
    b = random_state(3, "ginibre", RandomSource(16))
    assert np.array_equal(a.mat, b.mat)
    vals = eigenvalues_descending(a)
    assert vals[-1] > 0.0  # a square Ginibre matrix has full rank
    assert np.trace(a.mat).real == pytest.approx(1.0, abs=1e-12)


def test_rank_k_states():
    rho = random_state(5, "rank-k", RandomSource(17), rank=2)
    vals = eigenvalues_descending(rho)
    assert np.all(vals[2:] <= 1e-12)
    with pytest.raises(QuditEpiError, match="rank must satisfy 1 <= rank <= 5, got 0"):
        random_state(5, "rank-k", RandomSource(17), rank=0)
    with pytest.raises(QuditEpiError, match="rank must satisfy 1 <= rank <= 5, got 6"):
        random_state(5, "rank-k", RandomSource(17), rank=6)


@pytest.mark.parametrize("kind, rank", [("ginibre", None), ("pure", None), ("rank-k", 2)])
def test_states_from_gaussians_match_sample_state(kind, rank):
    # Row i is the state sample_state draws from stream i, and its spectrum
    # the oracle's.
    d = 4
    cols = state_columns(d, kind, rank)
    g = np.stack([complex_gaussian(RandomSource(18, i).generator(), d, cols) for i in range(6)])
    states, spectra = states_from_gaussians(g, kind)
    for i in range(len(g)):
        rho = sample_state(RandomSource(18, i).generator(), d, kind, rank)
        assert np.array_equal(states[i], rho.mat)
        assert repr(spectra[i].tolist()) == repr(eigenvalues_descending(rho).tolist())


def test_state_kind_aliases():
    # Only the documented spellings name a sampler; no alias, case or
    # whitespace variant does.
    documented = {"pure": "pure", "ginibre": "ginibre", "rank-k": "rank", "rank": "rank"}
    assert {kind: normalize_state_kind(kind) for kind in documented} == documented
    for kind in ("pure-haar", "mixed-ginibre", "mixed-rank-k", "Ginibre", " pure", "RANK-K", "thermal"):
        with pytest.raises(UsageError, match=r"^unknown state kind .*; expected pure, ginibre or rank-k$"):
            normalize_state_kind(kind)


@pytest.mark.parametrize("kind", [["pure"], ("ginibre",), {"rank": 1}, None, 1, b"pure"])
def test_a_state_kind_that_is_not_a_string_is_a_usage_error(kind):
    # An unhashable kind is not a TypeError, and a bytes spelling names no sampler.
    g = np.ones((1, 2, 1), dtype=complex)
    for call in (lambda: normalize_state_kind(kind), lambda: states_from_gaussians(g, kind)):
        with pytest.raises(UsageError, match=r"^unknown state kind .*; expected pure, ginibre or rank-k$"):
            call()


@pytest.mark.parametrize("rank", [1.5, 1.0, True, False, np.bool_(True), "1", None])
def test_a_rank_that_is_not_an_integer_is_rejected(rank):
    # A float is not truncated and a bool does not count as 0 or 1.
    with pytest.raises(QuditEpiError, match="^rank must be an integer, got "):
        state_columns(2, "rank", rank)


def test_numpy_integer_ranks_are_integers():
    assert state_columns(3, "rank-k", np.int64(2)) == 2
    assert type(state_columns(3, "rank-k", np.uint8(3))) is int
