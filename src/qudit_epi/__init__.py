"""Entropy power inequalities for qudits under the partial-swap channel.

A small numerical library (validated states, the partial-swap channel, local
measurements, entropic functionals) plus a randomized verification harness
and CLI around the conditional majorization identity and the conditional
entropy power inequality with separable environments.
"""

from ._version import __version__
from .channels import (
    partial_swap_closed,
    partial_swap_conjugation,
    partial_swap_global,
    partial_swap_global_closed,
    partial_swap_unitary,
    swap_operator,
)
from .entropy import (
    climb_product_basis,
    conditional_vn_entropy,
    entropy_power,
    expected_entropy_power,
    kappa_bounds,
    majorizes,
    shannon_entropy,
    von_neumann_entropy,
)
from .harness import (
    Summary,
    TrialConfig,
    TrialRecord,
    run_experiment,
    summarize,
)
from .measurement import (
    ConditionalOutcome,
    MeasurementSet,
    condition_all,
    condition_bilocal,
    conditional_spectrum,
    projective_from_unitary,
)
from .rand import RandomSource, random_state, random_unitary
from .states import (
    DensityMatrix,
    MultipartiteState,
    commutator,
    eigenvalues_descending,
    make_density,
    matrix_distance,
    multipartite,
    partial_trace,
    permute_subsystems,
    tensor,
)

__all__ = [
    "__version__",
    "DensityMatrix",
    "MultipartiteState",
    "RandomSource",
    "MeasurementSet",
    "ConditionalOutcome",
    "TrialConfig",
    "TrialRecord",
    "Summary",
    "make_density",
    "multipartite",
    "tensor",
    "partial_trace",
    "permute_subsystems",
    "eigenvalues_descending",
    "commutator",
    "matrix_distance",
    "random_state",
    "random_unitary",
    "swap_operator",
    "partial_swap_unitary",
    "partial_swap_closed",
    "partial_swap_conjugation",
    "partial_swap_global",
    "partial_swap_global_closed",
    "projective_from_unitary",
    "condition_all",
    "condition_bilocal",
    "conditional_spectrum",
    "majorizes",
    "shannon_entropy",
    "von_neumann_entropy",
    "entropy_power",
    "kappa_bounds",
    "conditional_vn_entropy",
    "expected_entropy_power",
    "climb_product_basis",
    "run_experiment",
    "summarize",
]
