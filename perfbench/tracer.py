"""Per-layer spans around the public functions of ``swarmscale``, installed from outside.

Each wrapped callable records a ``perf_counter`` span.  A layer's self time
is its span minus the spans of the wrapped callables it called.  Wrappers
replace every binding of a function in the loaded ``swarmscale`` modules, so
names a module imported with ``from .macro import ...`` are traced too;
methods are wrapped on their class.  The package itself is not edited.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (layer key, defining module, function name)
FUNCTIONS = [
    ("micro.step_euler_maruyama", "swarmscale.micro", "step_euler_maruyama"),
    ("micro.consensus_point", "swarmscale.micro", "consensus_point"),
    ("micro.softmin_gap", "swarmscale.micro", "softmin_gap"),
    ("macro.lax_friedrichs_step", "swarmscale.macro", "lax_friedrichs_step"),
    ("macro.consensus_point_macro", "swarmscale.macro", "consensus_point_macro"),
    ("macro.cfl_dt", "swarmscale.macro", "cfl_dt"),
    ("macro.max_wavespeed", "swarmscale.macro", "max_wavespeed"),
    ("penalty.violation_micro", "swarmscale.penalty", "violation_micro"),
    ("penalty.violation_macro", "swarmscale.penalty", "violation_macro"),
    ("micromacro.transfer_mass", "swarmscale.micromacro", "transfer_mass"),
    ("micromacro.compute_zeta", "swarmscale.micromacro", "compute_zeta"),
    ("runner", "swarmscale.runner", "run_experiment"),
    ("config.load_config", "swarmscale.config", "load_config"),
]

# (layer key, defining module, class name, method name, counts points)
METHODS = [
    ("objectives.objective", "swarmscale.objectives", "ObjectiveFunction", "__call__", True),
    ("objectives.distance", "swarmscale.objectives", "BallUnion", "distance", True),
    ("objectives.distance", "swarmscale.objectives", "IntervalUnion", "distance", True),
    ("objectives.distance", "swarmscale.objectives", "Halfspace1D", "distance", True),
    ("penalty.update", "swarmscale.penalty", "PenaltyController", "update", False),
]

LAYERS = sorted({key for key, *_ in FUNCTIONS + METHODS})


class TracingError(RuntimeError):
    """A traced name is missing from the package, so a layer would go unmeasured."""


class Tracer:
    """Call counts, evaluated rows and self time per layer, for one traced block."""

    def __init__(self):
        self.calls = Counter()
        self.points = Counter()
        self.self_s = defaultdict(float)
        self._children = []  # child-span seconds of each open span, innermost last
        self._undo = []

    def _wrap(self, key, fn, count_points):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            if count_points:
                # args = (self, x); x is (..., d), one point per leading index
                self.points[key] += int(np.prod(np.shape(args[1])[:-1]))
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                self.self_s[key] += span - self._children.pop()
                if self._children:
                    self._children[-1] += span

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "swarmscale" or name.startswith("swarmscale.")]
        for key, module, name in FUNCTIONS:
            original = _lookup(module, name)
            wrapped = self._wrap(key, original, False)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)
        for key, module, cls_name, name, count_points in METHODS:
            cls = _lookup(module, cls_name)
            if name not in vars(cls):
                raise TracingError(f"{module}.{cls_name} no longer defines {name}")
            self._replace(cls, name, self._wrap(key, vars(cls)[name], count_points))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def _lookup(module, name):
    try:
        return getattr(sys.modules[module], name)
    except (KeyError, AttributeError):
        raise TracingError(f"{module}.{name} no longer exists; update perfbench/tracer.py") from None
