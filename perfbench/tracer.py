"""Span tracer that wraps public bihj functions from outside the package.

Each target names a function (or a method of a class) in one bihj module.
Installing the tracer replaces the object under that name in every loaded
``bihj`` module that bound it by the same name, so ``hermite_eval`` is timed
whether ``bihj.autonomous`` or ``bihj.compose`` calls it.  A target that no
longer exists is reported as absent instead of failing the run.

A span's self time is its duration minus the time of the spans it caused.
"""
import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _size_of(index, name):
    """Quantity: number of entries of one argument."""
    return lambda args, kwargs, result: int(np.size(_arg(args, kwargs, index, name)))


def _label_steps(args, kwargs, result):
    labels = _arg(args, kwargs, 1, "labels")
    times = _arg(args, kwargs, 2, "times")
    return len(labels) * (len(times) - 1)


def _point_steps(args, kwargs, result):
    initial = _arg(args, kwargs, 0, "initial")
    return int(np.size(initial.values)) * int(_arg(args, kwargs, 3, "steps"))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _snapshots(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "series").snapshots)


@dataclass(frozen=True)
class Target:
    """``module`` and ``attr`` ("func" or "Class.method") locate the callable;
    ``quantity`` maps (args, kwargs, result) to a work count."""

    metric: str
    module: str
    attr: str
    quantity: object = None


KERNELS = ("hermite_eval", "invert_monotone", "spline_slopes_natural",
           "tridiag_solve", "pchip_slopes", "fd_derivative")

_KERNEL_POINTS = {
    "hermite_eval": _size_of(3, "xq"),
    "invert_monotone": _size_of(3, "targets"),
    "spline_slopes_natural": _size_of(0, "x"),
    "tridiag_solve": _size_of(1, "d"),
    "pchip_slopes": _size_of(0, "x"),
    "fd_derivative": _size_of(0, "y"),
}

TARGETS = (
    Target("scenario.write_csv", "bihj.scenario", "write_csv", _file_bytes),
    Target("scenario.parse_config", "bihj.scenario", "parse_config"),
    Target("reference.evolve_crank_nicolson", "bihj.reference", "evolve_crank_nicolson",
           _point_steps),
    Target("reference.analytic_series", "bihj.reference", "analytic_series"),
    Target("fields.derive_series", "bihj.fields", "derive_series", _snapshots),
    Target("congruence.integrate_congruence", "bihj.congruence", "integrate_congruence",
           _label_steps),
    Target("congruence.FieldSource", "bihj.congruence", "FieldSource.velocity"),
    Target("congruence.FieldSource", "bihj.congruence", "FieldSource.dvdx"),
    Target("congruence.FieldActionRate", "bihj.congruence", "FieldActionRate.__call__"),
    Target("congruence.invert_labels", "bihj.congruence", "invert_labels", _size_of(1, "x")),
    Target("autonomous.propagate_autonomous", "bihj.autonomous", "propagate_autonomous",
           lambda args, kwargs, result: int(_arg(args, kwargs, 5, "steps"))),
    Target("autonomous.exchange_pair", "bihj.autonomous", "exchange_pair"),
    Target("autonomous.cross_map", "bihj.autonomous", "cross_map"),
    Target("compose.compose_trajectories", "bihj.compose", "compose_trajectories"),
    Target("compose.source_term", "bihj.compose", "source_term"),
    Target("compose.conservation_check", "bihj.compose", "conservation_check"),
    Target("reconstruct.reconstruction_probe", "bihj.reconstruct", "reconstruction_probe"),
    Target("reconstruct.bihj_wavefunction_at", "bihj.reconstruct", "bihj_wavefunction_at",
           _size_of(1, "x")),
) + tuple(Target(f"kernels.{k}", "bihj.kernels", k, _KERNEL_POINTS[k]) for k in KERNELS)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    patched: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = SpanStats()
        return self.stats[name]

    def _close(self, name, start, quantity, args, kwargs, result):
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        st = self.stat(name)
        st.calls += 1
        st.total_s += elapsed
        st.self_s += elapsed - child
        if quantity is not None and result is not _FAILED:
            st.work += quantity(args, kwargs, result)

    def span(self, name):
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, name)

    def wrap(self, name, fn, quantity=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            start = time.perf_counter()
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(name, start, quantity, args, kwargs, result)

        return traced

    def install(self, targets=TARGETS):
        """Patch every binding of every target; record the absent ones."""
        self.absent = []
        self.patched = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bihj" or n.startswith("bihj."))]
        for target in targets:
            home = sys.modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            owner = home
            if home is not None and owner_name:
                owner = getattr(home, owner_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self.wrap(target.metric, original, target.quantity)
            if owner_name:
                self._patch(owner, method, wrapper)
                self.patched.append(f"{target.module}.{target.attr}")
                continue
            for mod in modules:
                if vars(mod).get(method) is original:
                    self._patch(mod, method, wrapper)
                    self.patched.append(f"{mod.__name__}.{method}")

    def _patch(self, owner, attr, wrapper):
        # a method inherited from a base class is shadowed, then deleted again
        self._undo.append((owner, attr, vars(owner).get(attr, _FAILED)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _FAILED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def covered_self_s(self, exclude_prefix):
        """Self time summed over spans whose name lacks the prefix."""
        return sum(st.self_s for name, st in self.stats.items()
                   if not name.startswith(exclude_prefix))


_FAILED = object()  # marks a call that raised, or a binding that did not exist


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._stack.append(0.0)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.start, None, (), {}, None)
        return False
