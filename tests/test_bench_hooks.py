"""The package still serves what the benchmark reaches into it for.

``bench/tracing.py`` wraps the functions in its ``TRACED`` table by
(module, attribute), and ``bench/run.py`` reports ``accel.backend()`` in
its environment block; a rename or deletion in the package would break
the benchmark without failing any other test.  The benchmark counts a
failure on a problem it marks ``known_fault`` as expected, so the orbit
problems are also checked here, marks or not.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from weylcalc import cli

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    key = f"bench_{name}"
    if key not in sys.modules:  # dataclasses look their module up here
        spec = importlib.util.spec_from_file_location(key, _BENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


@pytest.mark.parametrize(
    "target",
    sorted(set(_bench_module("tracing").TRACED.values()))
    + [("weylcalc.accel", "backend")],
    ids=lambda t: f"{t[0]}.{t[1]}",
)
def test_benchmark_hook_resolves(target):
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr))


_ORBIT_OPS = _bench_module("workloads").orbit_ops(0)


@pytest.mark.parametrize("op", _ORBIT_OPS, ids=[op.name for op in _ORBIT_OPS])
def test_benchmark_orbit_problem_passes_its_check(op, tmp_path):
    checks = _bench_module("checks")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv + ["--outdir", str(tmp_path)])
    assert checks.check_orbit(op.spec, tmp_path, rc) == []
