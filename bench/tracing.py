"""Spans around weylcalc's public functions, recorded from outside the program.

The program imports its callees by name (``from .series import translate``),
so a function is wrapped under every name it is bound to in a loaded
``weylcalc`` module, including its own module for calls from inside it.
Each call records a span with its parent and operation; self time is the
span's duration minus that of its child spans.  ``numpy.linalg.svd`` is
recorded as ``eigen.svd`` only when called from ``weylcalc.eigen``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: span name -> (module, attribute) of the wrapped function
TRACED = {
    "cli.main": ("weylcalc.cli", "main"),
    "serialize.write_csv": ("weylcalc.serialize", "write_csv"),
    "serialize.write_report": ("weylcalc.serialize", "write_report"),
    "serialize.write_manifest_sidecar": ("weylcalc.serialize", "write_manifest_sidecar"),
    "series.translate": ("weylcalc.series", "translate"),
    "series.evaluate_grid": ("weylcalc.series", "evaluate_grid"),
    "series.disk_sup_norm": ("weylcalc.series", "disk_sup_norm"),
    "operators.commutator_matrix": ("weylcalc.operators", "commutator_matrix"),
    "operators.matrix_on_monomials": ("weylcalc.operators", "matrix_on_monomials"),
    "operators.decompose": ("weylcalc.operators", "decompose"),
    "operators.apply_weyl": ("weylcalc.operators", "apply_weyl"),
    "operators.apply_composite": ("weylcalc.operators", "apply_composite"),
    "kernel_solver.kernel_basis": ("weylcalc.kernel_solver", "kernel_basis"),
    "eigen.completeness_fit": ("weylcalc.eigen", "completeness_fit"),
    "eigen.eigen_residual": ("weylcalc.eigen", "eigen_residual"),
    "eigen.composite_eigencheck": ("weylcalc.eigen", "composite_eigencheck"),
    "orbit.construct_orbit": ("weylcalc.orbit", "construct_orbit"),
    "orbit.verify_orbit": ("weylcalc.orbit", "verify_orbit"),
    "orbit.select_expanding_lambdas": ("weylcalc.orbit", "select_expanding_lambdas"),
    "orbit.direct_power_values": ("weylcalc.orbit", "direct_power_values"),
}

_WRITERS = {
    "serialize.write_csv": "",
    "serialize.write_report": "",
    "serialize.write_manifest_sidecar": ".manifest.json",
}

#: span names whose call count is a per-layer metric
COUNTED = ("series.translate", "series.evaluate_grid", "eigen.completeness_fit",
           "orbit.direct_power_values")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory spans and counters for one operation at a time."""

    def __init__(self):
        self.spans = []  # (op, name, parent, duration_s, self_s)
        self._stack = []  # [name, start, child_time]
        self.op = ""
        self._seen = defaultdict(set)  # distinct-call keys of the current op
        self.counters = defaultdict(float)
        self._restore = []

    def begin_op(self, name: str) -> None:
        self.op = name
        for key, seen in self._seen.items():
            self.counters[key + ".distinct"] += len(seen)
        self._seen.clear()

    def end_op(self) -> None:
        self.begin_op("")

    def _record(self, name, fn, args, kwargs):
        if name == "series.translate":
            f, lam = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "lam")
            self._seen[name].add((hash(f.coeffs.tobytes()), complex(lam)))
        elif name == "orbit.direct_power_values":
            f, n = _arg(args, kwargs, 1, "f"), _arg(args, kwargs, 2, "n")
            self._seen[name].add((hash(f.coeffs.tobytes()), int(n)))
            self.counters["orbit.direct_power_steps"] += int(n)
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((self.op, name, parent, duration, duration - frame[2]))
            if name in _WRITERS:
                path = str(_arg(args, kwargs, 0, "path")) + _WRITERS[name]
                if os.path.exists(path):
                    self.counters["serialize.bytes_written"] += os.path.getsize(path)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every TRACED function under each name it is bound to."""
        import numpy.linalg

        modules = [m for k, m in sys.modules.items()
                   if k == "weylcalc" or k.startswith("weylcalc.")]
        for name, (modname, attr) in TRACED.items():
            fn = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        svd = numpy.linalg.svd
        traced_svd = self._wrap("eigen.svd", svd)

        @functools.wraps(svd)
        def svd_from_eigen(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "weylcalc.eigen":
                return traced_svd(*args, **kwargs)
            return svd(*args, **kwargs)

        self._restore.append((numpy.linalg, "svd", svd))
        numpy.linalg.svd = svd_from_eigen

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def take(self):
        """Per-layer totals and the spans recorded since the last call."""
        self.end_op()
        totals = defaultdict(float)
        calls = defaultdict(int)
        for _, name, _, _, self_s in self.spans:
            totals[name] += self_s
            calls[name] += 1
        out = {f"{name}_s": totals.get(name, 0.0) for name in list(TRACED) + ["eigen.svd"]}
        for name in COUNTED:
            out[f"{name}_calls"] = calls.get(name, 0)
        for name, short in (("series.translate", "series.translate"),
                            ("orbit.direct_power_values", "orbit.direct_power")):
            distinct = self.counters.get(name + ".distinct", 0.0)
            out[f"{short}_distinct_ratio"] = distinct / calls[name] if calls.get(name) else 0.0
        out["orbit.direct_power_steps"] = self.counters.get("orbit.direct_power_steps", 0.0)
        out["serialize.bytes_written"] = self.counters.get("serialize.bytes_written", 0.0)
        spans, self.spans = self.spans, []
        self.counters.clear()
        return out, spans
