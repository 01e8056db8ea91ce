"""Per-layer spans, recorded by wrapping vandelab functions from outside.

``install`` replaces each traced function in every ``vandelab`` module
that holds a reference to it (modules import these names directly, so
patching the defining module alone would miss most calls).  Spans nest:
a layer's time is its self time, the span's duration less the spans it
encloses, except the ``suites.*`` spans, which are reported whole
because their work is the exp-sum kernels beneath them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: (module, attribute, layer); attributes are looked up in the named
#: module and replaced wherever a vandelab module binds the same object
TARGETS = [
    ("vandelab.spectra", "hermitian_eigenvalues", "spectra.eigen"),
    ("vandelab.matrices", "build_gram_closed_form", "matrices.gram"),
    ("vandelab.matrices", "build_prolate", "matrices.prolate"),
    ("vandelab.geometry", "generate_config", "geometry.generate"),
    ("vandelab.geometry", "validate_config", "geometry.validate"),
    ("vandelab.bounds", "evaluate_all", "bounds.evaluate"),
    ("vandelab.hp", "decimal_str", "hp.serialize"),
    ("vandelab.experiments", "run_sweep", "experiments.report"),
    ("vandelab.experiments", "compute_sweep_point", "experiments.row"),
    ("vandelab.expsums", "_grid_max", "expsums.grid_max"),
    ("vandelab.expsums", "discrete_norm", "expsums.discrete_norm"),
    ("vandelab.expsums", "l2_norm_exact", "expsums.l2_exact"),
]
SUITE_LAYERS = {"turan": "suites.turan", "nikolskii": "suites.nikolskii",
                "cor-turan": "suites.cor_turan", "salem": "suites.salem",
                "riemann": "suites.riemann"}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.policy_bits = []
        self._stack = []

    def wrap(self, layer, fn, count=None):
        """fn inside a span; count(args, kwargs, result, exc) adds to
        self.counts after each call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enclosed = [0.0]
            self._stack.append(enclosed)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.self_s[layer] += dt - enclosed[0]
                self.total_s[layer] += dt
                self.calls[layer] += 1
                if count is not None:
                    count(args, kwargs, result, exc)
        return traced

    def _count_sweeps(self, args, kwargs, result, exc):
        # a ConvergenceError carries the sweeps it spent
        sweeps = result.sweeps_used if exc is None else getattr(exc, "sweeps", 0)
        self.counts["spectra.sweeps"] += sweeps or 0

    def _count_grid(self, args, kwargs, result, exc):
        self.counts["expsums.grid_points"] += _arg(args, kwargs, 3, "samples") + 1

    def _count_discrete(self, args, kwargs, result, exc):
        self.counts["expsums.discrete_points"] += _arg(args, kwargs, 1, "N") + 1

    def install(self):
        """Patch every target; returns nothing, lasts for the process."""
        from vandelab import hp, suites

        counters = {"spectra.eigen": self._count_sweeps,
                    "expsums.grid_max": self._count_grid,
                    "expsums.discrete_norm": self._count_discrete}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "vandelab"
                                         or name.startswith("vandelab."))]
        for module_name, attr, layer in TARGETS:
            orig = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(layer, orig, counters.get(layer))
            for module in modules:
                if getattr(module, attr, None) is orig:
                    setattr(module, attr, wrapped)
        for name, layer in SUITE_LAYERS.items():
            suites.ALL_SUITES[name] = self.wrap(layer, suites.ALL_SUITES[name])

        policy_bits = self.policy_bits
        required_bits = hp.PrecisionPolicy.required_bits

        @functools.wraps(required_bits)
        def recorded(policy, *args, **kwargs):
            bits = required_bits(policy, *args, **kwargs)
            policy_bits.append(bits)
            return bits
        hp.PrecisionPolicy.required_bits = recorded

    def metrics(self) -> dict:
        """Per-layer figures, as {name: (value, unit)}."""
        s, calls, counts = self.self_s, self.calls, self.counts
        sweeps = counts["spectra.sweeps"]
        grid = counts["expsums.grid_points"]
        out = {
            "spectra.eigen_s": (s["spectra.eigen"], "s"),
            "spectra.eigen_calls": (calls["spectra.eigen"], "count"),
            "spectra.sweeps": (sweeps, "count"),
            "spectra.ms_per_sweep": (
                1e3 * s["spectra.eigen"] / sweeps if sweeps else 0.0, "ms"),
            "matrices.gram_s": (s["matrices.gram"], "s"),
            "matrices.prolate_s": (s["matrices.prolate"], "s"),
            "geometry.generate_s": (s["geometry.generate"], "s"),
            "geometry.validate_s": (s["geometry.validate"], "s"),
            "geometry.validate_calls": (calls["geometry.validate"], "count"),
            "bounds.evaluate_s": (s["bounds.evaluate"], "s"),
            "hp.serialize_s": (s["hp.serialize"], "s"),
            "hp.bits_mean": (sum(self.policy_bits) / len(self.policy_bits)
                             if self.policy_bits else 0.0, "bits"),
            "experiments.report_s": (s["experiments.report"], "s"),
            "expsums.grid_max_s": (s["expsums.grid_max"], "s"),
            "expsums.grid_points": (grid, "count"),
            "expsums.us_per_grid_point": (
                1e6 * s["expsums.grid_max"] / grid if grid else 0.0, "us"),
            "expsums.discrete_norm_s": (s["expsums.discrete_norm"], "s"),
            "expsums.discrete_points": (counts["expsums.discrete_points"], "count"),
            "expsums.l2_exact_s": (s["expsums.l2_exact"], "s"),
            "expsums.l2_exact_calls": (calls["expsums.l2_exact"], "count"),
        }
        for layer in SUITE_LAYERS.values():
            out[layer + "_s"] = (self.total_s[layer], "s")
        return out
