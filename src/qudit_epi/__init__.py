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

Nor does it import the basis search: :func:`climb_product_basis` is
resolved from ``entropy`` on first access (the module ``__getattr__``), and
``harness`` imports the conditioned experiments (``conditional``) with their
first block, so a qepi or concavity run compiles neither module.
"""

import gc

_collecting = gc.isenabled()
gc.disable()
try:
    from ._version import __version__
    from .channels import partial_swap_global
    from .harness import (
        Summary,
        TrialBlock,
        TrialConfig,
        kappa_bounds,
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



def __getattr__(name: str):
    if name == "climb_product_basis":
        from .entropy import climb_product_basis

        return climb_product_basis
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
