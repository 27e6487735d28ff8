"""Entropy power inequalities for qudits under the partial-swap channel.

A small numerical library on stacks of states (validated density stacks, the
partial-swap channel, local measurements, entropic functionals) plus a
randomized verification harness and CLI around the conditional majorization
identity and the conditional entropy power inequality with separable
environments. The stacked kernels are imported from their modules; the
one-state routes they are checked against live in ``tests/oracles.py``.

Importing the package runs no garbage collection: the collector is paused
while its imports, numpy's included, build their tens of thousands of
long-lived objects, which then join the oldest generation unwalked, and the
caller's setting is restored.
"""

import gc

_collecting = gc.isenabled()
gc.disable()
try:
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
finally:
    # Resuming would walk every object the imports made at the next
    # allocation. gc.freeze() then gc.unfreeze() moves them all to the oldest
    # generation without a walk, unless the caller keeps objects frozen,
    # which unfreeze would release.
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

__all__ = [
    "__version__",
    "TrialConfig",
    "TrialBlock",
    "Summary",
    "partial_swap_global",
    "kappa_bounds",
    "climb_product_basis",
    "run_experiment",
    "summarize",
]
