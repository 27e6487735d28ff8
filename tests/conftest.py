import json
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

from oracles import _conditioned_pieces, _lemma_trial


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


def _parse_jsonl(text):
    """The objects of emitted JSONL text, one per line (NaN and Infinity
    tokens accepted)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


@pytest.fixture(scope="session")
def parse_jsonl():
    """JSONL text -> its objects (see _parse_jsonl)."""
    return _parse_jsonl


def _rows_of(blocks):
    """The rows of `blocks`, in order, as dicts: experiment, index, tau,
    kappas, negligible, the slacks, residuals and pass flags the row holds a
    value for, and passed, whether all those flags are true."""
    rows = []
    for block in blocks:
        n = len(block.taus)
        slacks, residuals, flags = (
            [{key: column[i] for key, column in columns.items() if column[i] is not None} for i in range(n)]
            for columns in (block.slacks, block.residuals, block.pass_flags)
        )
        for index, tau, count, *dicts in zip(block.indices, block.taus, block.negligible, slacks, residuals, flags):
            row = {"experiment": block.experiment, "index": index, "tau": tau, "kappas": block.kappas}
            row |= dict(zip(("slacks", "residuals", "pass_flags"), dicts))
            row |= {"passed": all(row["pass_flags"].values()), "negligible": count}
            rows.append(row)
    return rows


@pytest.fixture(scope="session")
def rows_of():
    """blocks -> their rows as dicts (see _rows_of)."""
    return _rows_of


def _joined(blocks):
    """The blocks of one run, in index order, as one block: each column the
    blocks' columns concatenated. Runs that cut the same trials into other
    blocks give equal joined blocks."""
    blocks = list(blocks)
    first = blocks[0]

    def concatenated(columns):
        return {key: [v for block in blocks for v in getattr(block, columns)[key]] for key in getattr(first, columns)}

    return TrialBlock(
        first.experiment,
        range(first.indices[0], blocks[-1].indices[-1] + 1),
        [tau for block in blocks for tau in block.taus],
        first.kappas,
        concatenated("slacks"),
        concatenated("residuals"),
        concatenated("pass_flags"),
        [count for block in blocks for count in block.negligible],
    )


@pytest.fixture(scope="session")
def joined():
    """blocks -> the one block of their rows (see _joined)."""
    return _joined


@pytest.fixture(scope="session")
def conditioned_pieces():
    """(joint, s1, s2, m1, m2) -> (outcomes 1, outcomes 2, output grid,
    prob_norm) (see oracles._conditioned_pieces)."""
    return _conditioned_pieces


@pytest.fixture(scope="session")
def lemma_trial():
    """(cfg, index) -> the lemma trial's one-row block by the one-state
    routes, the lemma block's parity oracle (see oracles._lemma_trial)."""
    return _lemma_trial
