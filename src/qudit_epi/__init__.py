"""Entropy power inequalities for qudits under the partial-swap channel.

A small numerical library (validated states, the partial-swap channel, local
measurements, entropic functionals) plus a randomized verification harness
and CLI around the conditional majorization identity and the conditional
entropy power inequality with separable environments.
"""

from ._version import __version__
from .channels import partial_swap_closed, partial_swap_global
from .entropy import (
    climb_product_basis,
    entropy_power,
    kappa_bounds,
    majorizes,
    shannon_entropy,
    von_neumann_entropy,
)
from .harness import (
    Summary,
    TrialBlock,
    TrialConfig,
    run_experiment,
    summarize,
)
from .rand import RandomSource, random_state
from .states import DensityMatrix, eigenvalues_descending, make_density

__all__ = [
    "__version__",
    "DensityMatrix",
    "RandomSource",
    "TrialConfig",
    "TrialBlock",
    "Summary",
    "make_density",
    "eigenvalues_descending",
    "random_state",
    "partial_swap_closed",
    "partial_swap_global",
    "majorizes",
    "shannon_entropy",
    "von_neumann_entropy",
    "entropy_power",
    "kappa_bounds",
    "climb_product_basis",
    "run_experiment",
    "summarize",
]
