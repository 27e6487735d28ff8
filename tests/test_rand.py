import warnings

import numpy as np
import pytest

from qudit_epi import rand
from qudit_epi.errors import QuditEpiError, UsageError
from qudit_epi.rand import (
    KeyedStreams,
    complex_gaussian,
    derived_indices,
    haar_unitaries,
    haar_unitary,
    normalize_state_kind,
    state_columns,
    states_from_gaussians,
)

from oracles import RandomSource, eigenvalues_descending, random_state, sample_state


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


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_stacked_haar_rows_equal_haar_unitary(e):
    streams = [RandomSource(19, i) for i in range(40)]
    g = np.stack([complex_gaussian(s.generator(), e, e) for s in streams])
    u, ok = haar_unitaries(g.reshape(4, 10, e, e))
    assert ok.all()
    for row, s in zip(u.reshape(40, e, e), streams):
        expected = haar_unitary(e, s.generator())
        assert np.array_equal(row, expected)
        assert repr(row.tolist()) == repr(expected.tolist())  # signed zeros too


def test_stacked_haar_flags_rows_that_fail_the_checks():
    g = complex_gaussian(RandomSource(20).generator(), 3, 3)
    singular = g.copy()
    singular[:, 1] = 0.0  # R gets a zero diagonal entry
    _, ok = haar_unitaries(np.stack([g, singular, g]))
    assert ok.tolist() == [True, False, True]


def test_stacked_haar_applies_haar_unitarys_tolerance(monkeypatch):
    # At a tolerance inside the spread of the residuals, a row passes exactly
    # when haar_unitary keeps its first draw.
    streams = [RandomSource(21, i) for i in range(40)]
    g = np.stack([complex_gaussian(s.generator(), 3, 3) for s in streams])
    u, _ = haar_unitaries(g)
    residuals = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(3)).max(axis=(-2, -1))
    monkeypatch.setattr(rand, "UNITARY_TOL", float(np.median(residuals)))
    u, ok = haar_unitaries(g)
    assert 0 < ok.sum() < len(ok)
    for row, flag, s in zip(u, ok, streams):
        try:
            kept_first = np.array_equal(row, haar_unitary(3, s.generator()))
        except QuditEpiError:  # no draw within the tolerance
            kept_first = False
        assert flag == kept_first


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
