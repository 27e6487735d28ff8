"""Entropy power inequalities for qudits under the partial-swap channel.

A small numerical library on stacks of states (validated density stacks, the
partial-swap channel, local measurements, entropic functionals) plus a
randomized verification harness and CLI around the conditional majorization
identity and the conditional entropy power inequality with separable
environments. The stacked kernels are imported from their modules; the
one-state routes they are checked against live in ``tests/oracles.py``.
"""

from ._version import __version__
from .channels import partial_swap_global
from .entropy import climb_product_basis, kappa_bounds
from .harness import (
    Summary,
    TrialBlock,
    TrialConfig,
    run_experiment,
    summarize,
)
from .rand import RandomSource

__all__ = [
    "__version__",
    "RandomSource",
    "TrialConfig",
    "TrialBlock",
    "Summary",
    "partial_swap_global",
    "kappa_bounds",
    "climb_product_basis",
    "run_experiment",
    "summarize",
]
