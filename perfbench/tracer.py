"""In-process span tracer for the qudit-epi package.

The tracer wraps, from outside the package, every call that crosses into one
of its layers: the public functions and public methods of each module, every
name one module imports from another (``harness`` imports ``make_density``,
``projective_entropy_power`` and others by name, so patching the defining
module alone would miss those calls), function objects held in module-level
dicts (``harness._TRIAL_FNS``), and the numpy eigensolvers
``numpy.linalg.eigvalsh/eigh/qr`` as the ``linalg`` layer.

Spans are aggregated as they close instead of being stored: each span adds its
duration to its function's inclusive time, and its duration minus that of its
direct child spans to its function's and its layer's self time. Storing the
~10^5 spans of one run would cost more than the work being traced.

Only the process that installed the tracer records anything; forked pool
workers inherit the wrappers but call straight through, so a traced parallel
run holds parent-side spans only.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "qudit_epi"

# Metric prefix of each traced module; `_kernels` is renamed because metric
# names must start with a letter.
LAYER_OF_MODULE = {
    "rand": "rand",
    "states": "states",
    "channels": "channels",
    "measurement": "measurement",
    "entropy": "entropy",
    "_kernels": "kernels",
    "harness": "harness",
    "cli": "cli",
}
LINALG_FUNCTIONS = ("eigvalsh", "eigh", "qr")
LAYERS = tuple(LAYER_OF_MODULE.values()) + ("linalg",)


def _flatten_outcomes(result):
    """ConditionalOutcome objects returned by a measurement boundary call."""
    if isinstance(result, list):
        return [o for item in result for o in (item if isinstance(item, list) else [item])]
    return [result]


# Measurement calls whose results are counted as conditional outcomes.
_OUTCOME_FUNCTIONS = frozenset(
    {"measurement.condition", "measurement.condition_all", "measurement.condition_bilocal"}
)


class Tracer:
    """Patches the package's call boundaries and aggregates span times.

    Use as ``with Tracer() as t: ...``; the originals are restored on exit.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.layer_self_s: defaultdict = defaultdict(float)
        self.layer_entries: Counter = Counter()
        self.outcomes = 0
        self.negligible = 0
        self._stack: list[list] = []  # frames: [layer, child seconds]
        self._wrappers: dict = {}  # original function -> wrapper
        self._patched: list[tuple] = []  # (setter, container, key, original)

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, layer: str):
        if fn in self._wrappers:
            return self._wrappers[fn]
        stack = self._stack
        count_outcomes = name in _OUTCOME_FUNCTIONS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            if not stack or stack[-1][0] != layer:
                self.layer_entries[layer] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += own
                self.layer_self_s[layer] += own
                if stack:
                    stack[-1][1] += dur
            if count_outcomes:
                outcomes = _flatten_outcomes(result)
                self.outcomes += len(outcomes)
                self.negligible += sum(1 for o in outcomes if o.negligible)
            return result

        self._wrappers[fn] = traced
        return traced

    def _patch(self, setter, container, key, original, wrapper) -> None:
        self._patched.append((setter, container, key, original))
        setter(container, key, wrapper)

    @staticmethod
    def _layer_of(fn) -> str | None:
        module = getattr(fn, "__module__", None) or ""
        parts = module.split(".")
        if parts[0] != PACKAGE or len(parts) < 2:
            return None
        return LAYER_OF_MODULE.get(parts[1])

    def install(self) -> "Tracer":
        import numpy as np

        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        seen_classes = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    layer = self._layer_of(value)
                    # A module's own private helpers stay unwrapped; a private
                    # name imported from another module is a layer boundary.
                    own = value.__module__ == module.__name__
                    if layer and not (own and attr.startswith("_")):
                        wrapper = self._wrap(value, f"{layer}.{value.__qualname__}", layer)
                        self._patch(setattr, module, attr, value, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        layer = self._layer_of(item) if inspect.isfunction(item) else None
                        if layer:
                            wrapper = self._wrap(item, f"{layer}.{item.__qualname__}", layer)
                            self._patch(dict.__setitem__, value, key, item, wrapper)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    layer = self._layer_of(value)
                    if not layer or value in seen_classes:
                        continue
                    seen_classes.add(value)
                    for attr_name, method in list(vars(value).items()):
                        if inspect.isfunction(method) and not attr_name.startswith("_"):
                            wrapper = self._wrap(method, f"{layer}.{method.__qualname__}", layer)
                            self._patch(setattr, value, attr_name, method, wrapper)
        for attr in LINALG_FUNCTIONS:
            original = getattr(np.linalg, attr)
            self._patch(setattr, np.linalg, attr, original, self._wrap(original, f"linalg.{attr}", "linalg"))
        return self

    def uninstall(self) -> None:
        for setter, container, key, original in reversed(self._patched):
            setter(container, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -------------------------------------------------------------- metrics

    def layer_metrics(self, wall_s: float, trials: int, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced run, keyed by metric name.

        `wall_s` is the traced wall time of the run, `trials` the number of
        trial records it produced and `output_bytes` the size of its output.
        """
        per_trial = 1.0 / trials
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self_s[layer]
            m[f"{layer}.share"] = self.layer_self_s[layer] / wall_s
        m["rand.generators_per_trial"] = self.calls["rand.RandomSource.generator"] * per_trial
        m["rand.draws_per_trial"] = self.calls["rand.complex_gaussian"] * per_trial
        m["states.validations_per_trial"] = self.calls["states.make_density"] * per_trial
        for attr in LINALG_FUNCTIONS:
            m[f"linalg.{attr}_per_trial"] = self.calls[f"linalg.{attr}"] * per_trial
        m["channels.calls_per_trial"] = self.layer_entries["channels"] * per_trial
        m["measurement.outcomes_per_trial"] = self.outcomes * per_trial
        m["measurement.negligible_share"] = self.negligible / self.outcomes if self.outcomes else 0.0
        m["entropy.objective_evals_per_trial"] = self.calls["entropy.projective_entropy_power"] * per_trial
        m["kernels.calls_per_trial"] = self.layer_entries["kernels"] * per_trial
        m["harness.summarize_s"] = self.total_s["harness.summarize"]
        m["harness.dispatch_s"] = self.self_s["harness.run_experiment"]
        m["cli.emit_s"] = self.total_s["cli.emit"]
        m["cli.bytes_per_trial"] = output_bytes * per_trial
        return m
