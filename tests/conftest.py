import math
import os
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import qudit_epi
from qudit_epi.entropy import projective_entropy_power
from qudit_epi.harness import TrialBlock
from qudit_epi.states import make_density


@pytest.fixture(autouse=True, scope="session")
def _child_processes_import_this_package():
    """CLI tests launch `python -m qudit_epi.cli`. The `pythonpath` setting of
    pytest only extends this process's sys.path, so hand the package's source
    directory to child processes through PYTHONPATH."""
    src = str(Path(qudit_epi.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def bell():
    """The maximally entangled two-qubit state on (X, E)."""
    v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return make_density(np.outer(v, v.conj()))


@pytest.fixture
def plus():
    return make_density(np.full((2, 2), 0.5, dtype=complex))


@pytest.fixture
def zero():
    return make_density(np.diag([1.0, 0.0]).astype(complex))


def _kron_stack(a, b):
    """np.kron of the last two axes of two stacks with equal leading axes."""
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return np.einsum("...ij,...kl->...ikjl", a, b).reshape(*a.shape[:-2], rows, cols)


def _expected_power_objective(s, kappa):
    dx, *envs = s.dims
    de = math.prod(envs)
    rho4 = s.state.mat.reshape(dx, de, dx, de)

    def objective(factors):
        ((probs, powers),) = projective_entropy_power([rho4], [reduce(_kron_stack, factors)], kappa)
        return (probs[..., None, :] @ powers[..., :, None])[..., 0, 0]

    return objective


@pytest.fixture
def expected_power_objective():
    """(state on (X, E1, ..., En), kappa) -> the expected entropy power of X
    conditioned on (E1, ..., En), as a function of stacked product basis
    factors: (..., e_j, e_j) factor stacks map to (...) values."""
    return _expected_power_objective


def _block_of(records):
    """The TrialBlock whose rows are `records`, taking the experiment and
    kappas of the first: each key's column in the order keys first appear,
    None in a row whose record lacks the key."""

    def columns(attr):
        keys = dict.fromkeys(key for r in records for key in getattr(r, attr))
        return {key: [getattr(r, attr).get(key) for r in records] for key in keys}

    first = records[0]
    return TrialBlock(
        first.experiment,
        [r.index for r in records],
        [r.tau for r in records],
        first.kappas,
        columns("slacks"),
        columns("residuals"),
        columns("pass_flags"),
        [r.negligible for r in records],
    )


@pytest.fixture(scope="session")
def block_of():
    """records -> the TrialBlock whose rows they are (see _block_of)."""
    return _block_of
