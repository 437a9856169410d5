"""Per-layer tracing of one `rotlasso exp` pass, installed from outside the package.

Each traced function is replaced, in every rotlasso module namespace that
holds a reference to it, by a wrapper that counts calls, inclusive seconds and
self seconds (inclusive minus the time of wrapped callees), adds counts read
from the returned result, and keeps a bounded number of (arguments, result)
captures for the output checks.  `Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _re_variant(args) -> str:
    """`full_cone` when the cone covers every column, else the objective mode."""
    if args["cone"].S.size == args["X"].n_cols:
        return "full_cone"
    return args["mode"]


def _solver_counts(**names):
    def counts(cert):
        return {key: getattr(cert.solver_report, attr) for key, attr in names.items()}
    return counts


@dataclass(frozen=True)
class Layer:
    """One traced function and the metrics reported for it."""

    name: str                     # metric prefix, `<module>.<function>`
    module: str                   # module that defines the function
    func: str
    quantities: tuple[str, ...]   # among calls, s, self_s and the keys of `counts`
    variant: Callable | None = None
    variants: tuple[str, ...] = ()
    counts: Callable | None = None
    capture: int = 0              # captures kept per capture key
    capture_key: Callable | None = None

    def metric_names(self) -> list[str]:
        prefixes = [f"{self.name}.{v}" for v in self.variants] or [self.name]
        return [f"{p}.{q}" for p in prefixes for q in self.quantities]


LAYERS = (
    Layer("certificates.re_constant", "rotlasso.certificates", "re_constant",
          ("calls", "s", "self_s", "iterations", "restarts"),
          variant=_re_variant, variants=("gamma", "full_cone", "gamma_prime"),
          counts=_solver_counts(iterations="iterations", restarts="restarts"),
          capture=10_000),
    # the metric name drops the leading underscore of the private module
    Layer("projection.project_l1_columns", "rotlasso._projection", "project_l1_columns",
          ("calls", "s")),
    Layer("lasso.project_l1", "rotlasso._projection", "project_l1", ("calls", "s")),
    Layer("lasso.lasso_constrained", "rotlasso.lasso", "lasso_constrained",
          ("calls", "s", "self_s", "iterations"),
          counts=lambda sol: {"iterations": sol.iterations}, capture=10_000),
    Layer("designs.sample_rotation", "rotlasso.designs", "sample_rotation",
          ("calls", "s"), capture=2, capture_key=lambda a: a["n"]),
    Layer("designs.partially_rotate", "rotlasso.designs", "partially_rotate",
          ("calls", "self_s"), capture=2, capture_key=lambda a: a["X"].n_rows),
    Layer("certificates.partial_rotation_failure_rate", "rotlasso.certificates",
          "partial_rotation_failure_rate", ("calls", "self_s")),
    Layer("harness.max_rno_over_disjoint_pairs", "rotlasso.harness",
          "max_rno_over_disjoint_pairs", ("calls", "s"), capture=10_000),
    Layer("certificates.rip_constant", "rotlasso.certificates", "rip_constant",
          ("calls", "s", "supports"), counts=_solver_counts(supports="iterations"),
          capture=10_000),
    Layer("certificates.rno_constant", "rotlasso.certificates", "rno_constant",
          ("calls", "s", "pairs"), counts=_solver_counts(pairs="iterations")),
    Layer("designs.correlated_block_design", "rotlasso.designs",
          "correlated_block_design", ("s",)),
    Layer("designs.counterexample_design", "rotlasso.designs",
          "counterexample_design", ("s",)),
    Layer("designs.semirandom_gaussian_design", "rotlasso.designs",
          "semirandom_gaussian_design", ("s",)),
    Layer("harness.emit_results", "rotlasso.harness", "emit_results", ("s",)),
    Layer("cli.main", "rotlasso.cli", "main", ("s",)),
)


def per_layer_names() -> list[str]:
    return [m for layer in LAYERS for m in layer.metric_names()]


def metric_unit(name: str) -> str:
    return "s" if name.endswith((".s", ".self_s")) else "count"


class Tracer:
    """Wraps every `LAYERS` function while installed; see the module docstring."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.captures = defaultdict(list)   # layer name -> [(arguments, result)]
        self._capture_counts = defaultdict(int)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn)
        needs_args = layer.variant is not None or layer.capture > 0

        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                bound = b.arguments
            key = layer.name if layer.variant is None else f"{layer.name}.{layer.variant(bound)}"
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                st = self.stats[key]
                st["calls"] += 1
                st["s"] += dt
                st["self_s"] += dt - children
            if layer.counts is not None:
                for q, v in layer.counts(result).items():
                    st[q] += v
            if layer.capture:
                ck = (layer.name, layer.capture_key(bound) if layer.capture_key else None)
                if self._capture_counts[ck] < layer.capture:
                    self._capture_counts[ck] += 1
                    self.captures[layer.name].append((bound, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rotlasso" or name.startswith("rotlasso.")]
        for layer in LAYERS:
            fn = getattr(importlib.import_module(layer.module), layer.func)
            wrapper = self._wrap(layer, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in per_layer_names():
            key, q = name.rsplit(".", 1)
            value = self.stats[key][q] if key in self.stats else 0.0
            out[name] = int(value) if metric_unit(name) == "count" else float(value)
        return out
