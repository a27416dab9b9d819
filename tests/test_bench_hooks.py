"""The package still serves what the benchmark reaches into it for.

``bench/tracing.py`` wraps the functions in its ``TRACED`` table by
(module, attribute) and reads some of their arguments by name and
position, and ``bench/run.py`` reports ``accel.backend()`` in its
environment block; a rename, deletion or signature change in the
package would break the benchmark without failing any other test.  The
benchmark counts a failure on a problem it marks ``known_fault`` as
expected, so the orbit problems are also checked here, marks or not.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import readme_cli_examples
from weylcalc import cli

_ROOT = Path(__file__).resolve().parent.parent
_BENCH = _ROOT / "bench"


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


#: the arguments ``Tracer._record`` in bench/tracing.py reads, by name and
#: position: (module, function) -> {parameter: position}
_READ_ARGUMENTS = {
    ("weylcalc.orbit", "direct_power_values"): {"f": 1, "n": 2},
    ("weylcalc.series", "translate"): {"f": 0, "lam": 1},
    ("weylcalc.serialize", "write_csv"): {"path": 0},
    ("weylcalc.serialize", "write_report"): {"path": 0},
    ("weylcalc.serialize", "write_manifest_sidecar"): {"path": 0},
}


@pytest.mark.parametrize("target", sorted(_READ_ARGUMENTS),
                         ids=lambda t: f"{t[0]}.{t[1]}")
def test_benchmark_reads_arguments_where_they_are(target):
    module, attr = target
    wanted = _READ_ARGUMENTS[target]
    assert target in _bench_module("tracing").TRACED.values()
    fn = getattr(importlib.import_module(module), attr)
    params = list(inspect.signature(fn).parameters)
    assert {name: params.index(name) for name in wanted if name in params} == wanted


_ORBIT_OPS = _bench_module("workloads").orbit_ops(0)


@pytest.mark.parametrize("op", _ORBIT_OPS, ids=[op.name for op in _ORBIT_OPS])
def test_benchmark_orbit_problem_passes_its_check(op, tmp_path):
    checks = _bench_module("checks")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv + ["--outdir", str(tmp_path)])
    assert checks.check_orbit(op.spec, tmp_path, rc) == []


def test_artifact_digests_cover_every_workload_operation():
    # one "sha256  <seed>/<op name>/<file>" line per artifact, sorted
    out = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "artifact_digests.py"), "--seeds", "0"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert len(out) == 110
    digests, paths = zip(*(line.split("  ") for line in out))
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    assert list(paths) == sorted(paths)
    ops = {op.name for make_ops in _bench_module("workloads").WORKLOADS.values()
           for op in make_ops(0)}
    assert {"0/" + op for op in ops} == {path.rsplit("/", 1)[0] for path in paths}


def test_readme_orbit_with_a_real_fold_passes_its_check(tmp_path):
    # --order 256 on the 128-point verification circle: the direct route
    # folds the coefficients of A^n f mod 128, and the benchmark's exact
    # power on the unit circle, which shares no code with weylcalc, checks
    # the discrepancy it reports
    [argv] = [a for a in readme_cli_examples() if a[0] == "construct-orbit"]
    [op] = [op for op in _ORBIT_OPS if op.name == "orbit/readme_T_1_z"]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--order", "256", "--outdir", str(tmp_path)])
    assert _bench_module("checks").check_orbit(op.spec, tmp_path, rc) == []
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert len(doc["f"]["coeffs"]) == 256
