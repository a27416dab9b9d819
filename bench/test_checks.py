"""Each benchmark check accepts a good artifact and rejects a corrupted one.

Run from the repository root::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from weylcalc import cli  # noqa: E402


def _run(op, outdir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(op.argv + ["--outdir", str(outdir)])


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture(autouse=True)
def _fixed_timestamp(monkeypatch):
    monkeypatch.setenv("WEYLCALC_TIMESTAMP", "2000-01-01T00:00:00+00:00")


# ---------------------------------------------------------------------------
# exact arithmetic


def test_unit_roots_match_floating_point():
    roots = checks._unit_roots(128, 80)
    got = np.array([complex(r / 2**80, i / 2**80) for r, i in roots])
    assert np.abs(got - checks.circle(1.0)).max() < 1e-15


def test_exact_power_matches_float_power_for_small_n():
    # T = D - z on 12 coefficients, L(T) = T + T^2, two steps
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    t = np.diag(np.arange(1, 12), 1) - np.diag(np.ones(11), -1)
    a_mat = t + t @ t
    g = np.linalg.matrix_power(a_mat, 2) @ coeffs
    want = checks.poly_values(g, checks.circle(1.0, 16))
    got = checks.exact_power_on_circle([0, 1], 1, [0, 1, 1], coeffs, 2, count=16)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_kernel_recurrence_of_d_minus_z_is_exp_z2_over_2():
    c = checks.kernel_recurrence([0, 1], 1, 0, 12)
    for n, (re, im) in enumerate(c):
        want = 0 if n % 2 else Fraction(1, 2 ** (n // 2) * math.factorial(n // 2))
        assert im == 0 and re == want


# ---------------------------------------------------------------------------
# construct-orbit


@pytest.fixture(scope="module")
def orbit_artifacts(tmp_path_factory):
    op = workloads.orbit_ops(0)[2]  # single target {phase * 1}
    outdir = tmp_path_factory.mktemp("orbit")
    return op, outdir, _run(op, outdir)


def _corrupted_orbit(orbit_artifacts, tmp_path, edit):
    op, outdir, rc = orbit_artifacts
    path = tmp_path / "orbit.json"
    path.write_text((outdir / "orbit.json").read_text())
    _edit_json(path, edit)
    return checks.check_orbit(op.spec, tmp_path, rc)


def test_orbit_check_accepts_program_output(orbit_artifacts):
    op, outdir, rc = orbit_artifacts
    assert checks.check_orbit(op.spec, outdir, rc) == []


def test_orbit_check_rejects_perturbed_weight(orbit_artifacts, tmp_path):
    def edit(doc):
        w = doc["blocks"][0]["weights"][0]
        w[0] *= 1 + 1e-6

    problems = _corrupted_orbit(orbit_artifacts, tmp_path, edit)
    assert any("eigen-sum" in p for p in problems)


def test_orbit_check_rejects_schedule_shifted_by_one(orbit_artifacts, tmp_path):
    def edit(doc):
        doc["schedule"] = [n + 1 for n in doc["schedule"]]
        for blk in doc["blocks"]:
            blk["n"] += 1
        for row in doc["verification"]:
            row["n"] += 1

    problems = _corrupted_orbit(orbit_artifacts, tmp_path, edit)
    assert any("method_discrepancy" in p for p in problems)


def test_orbit_check_rejects_wrong_eigenvalue(orbit_artifacts, tmp_path):
    def edit(doc):
        doc["eigenvalues"][3][1] += 1e-9

    problems = _corrupted_orbit(orbit_artifacts, tmp_path, edit)
    assert problems == ["reported eigenvalues differ from L(a lambda)"]


def test_orbit_check_finds_the_cancellation_fault(tmp_path):
    op = workloads.orbit_ops(0)[0]  # README instance, targets {1, z}
    assert op.known_fault
    problems = checks.check_orbit(op.spec, tmp_path, _run(op, tmp_path))
    assert problems and problems[0].startswith("target 0 missed at n = 18")


# ---------------------------------------------------------------------------
# complete-fit


def _small_fit(tmp_path):
    op = next(o for o in workloads.fit_ops(7) if o.spec["preset"] == "random")
    argv = list(op.argv)
    argv[argv.index("--counts") + 1] = "5,20"
    op = workloads.Op(op.name, op.kind, argv, {**op.spec, "counts": [5, 20]})
    return op, _run(op, tmp_path)


def test_fit_check_accepts_program_output(tmp_path):
    op, rc = _small_fit(tmp_path)
    assert checks.check_fit(op.spec, tmp_path, rc) == []


def test_fit_check_rejects_perturbed_weight(tmp_path):
    op, rc = _small_fit(tmp_path)

    def edit(doc):
        w = doc["fits"][1]["weights"]
        k = max(range(len(w)), key=lambda i: abs(complex(*w[i])))
        w[k][0] *= 1 + 1e-6

    _edit_json(tmp_path / "complete_fit.json", edit)
    problems = checks.check_fit(op.spec, tmp_path, rc)
    assert len(problems) == 1 and "target 0, |Lambda| = 20: residual" in problems[0]


def test_fit_check_rejects_wrong_lambda_set(tmp_path):
    op, rc = _small_fit(tmp_path)
    problems = checks.check_fit({**op.spec, "seed": op.spec["seed"] + 1}, tmp_path, rc)
    assert problems


# ---------------------------------------------------------------------------
# algebra


def _algebra_op(kind, label, **spec):
    op = next(o for o in workloads.algebra_ops(0)
              if o.kind == kind and o.name.split("_")[1] == label)
    argv = list(op.argv)
    for key, value in spec.items():
        flag = "--" + key.replace("_", "-")
        argv[argv.index(flag) + 1] = str(value)
    return workloads.Op(op.name, op.kind, argv, {**op.spec, **spec})


@pytest.mark.parametrize("label", ["T2", "L(T1)"])
def test_commutator_check_accepts_and_rejects_a_wrong_entry(tmp_path, label):
    op = _algebra_op("commutator", label, ncap=16)
    rc = _run(op, tmp_path)
    assert checks.check_commutator(op.spec, tmp_path, rc) == []
    path = tmp_path / "commutator_matrix.csv"
    rows = list(csv.reader(path.open()))
    rows[1 + 17 * 3 + 3][2] = repr(float(rows[1 + 17 * 3 + 3][2]) + 2.0**-40)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    problems = checks.check_commutator(op.spec, tmp_path, rc)
    assert problems and "differ from a*L'(T)" in problems[0]


def test_decompose_check(tmp_path):
    op = _algebra_op("decompose", "T3")
    rc = _run(op, tmp_path / "weyl")
    assert checks.check_decompose(op.spec, tmp_path / "weyl", rc) == []
    _edit_json(tmp_path / "weyl" / "decompose.json", lambda doc: doc["d"][1].__setitem__(0, 0.25))
    assert checks.check_decompose(op.spec, tmp_path / "weyl", rc)
    comp = _algebra_op("decompose", "L(T1)")
    rc = _run(comp, tmp_path / "comp")
    assert rc == 1
    assert checks.check_decompose(comp.spec, tmp_path / "comp", rc) == []
    assert checks.check_decompose(comp.spec, tmp_path / "comp", 0)


def test_kernel_check(tmp_path):
    op = _algebra_op("kernel", "T4")
    rc = _run(op, tmp_path)
    assert checks.check_kernel(op.spec, tmp_path, rc) == []
    _edit_json(tmp_path / "kernel_basis.json",
               lambda doc: doc["solutions"][2]["coeffs"][20].__setitem__(1, 1e-30))
    assert checks.check_kernel(op.spec, tmp_path, rc) == [
        "solution 2: coefficient 20 differs from the recurrence"
    ]


def test_eigencheck_check(tmp_path):
    op = _algebra_op("eigencheck", "L(T1)", grid=3)
    rc = _run(op, tmp_path)
    assert checks.check_eigencheck(op.spec, tmp_path, rc) == []
    path = tmp_path / "eigencheck_grid.csv"
    text = path.read_text().splitlines()
    cells = text[4].split(",")
    cells[-1] = "2e-10"
    text[4] = ",".join(cells)
    path.write_text("\n".join(text) + "\n")
    problems = checks.check_eigencheck(op.spec, tmp_path, rc)
    assert problems and problems[0].startswith("worst composite_residual")


# ---------------------------------------------------------------------------
# tracing


def test_traced_pass_reports_the_declared_per_layer_metrics(tmp_path):
    from tracing import Tracer

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    original = cli.main
    op = _algebra_op("eigencheck", "L(T1)", grid=3)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(op.name)
        _run(op, tmp_path)
    finally:
        tracer.uninstall()
    layers, spans = tracer.take()
    assert cli.main is original
    # run.py adds the three trace.* figures from its untraced and traced passes
    assert set(layers) | {"trace.wall_s", "trace.traced_wall_s", "trace.overhead_ratio"} == declared
    assert layers["series.translate_calls"] == 18  # 9 lambdas, eigen and composite checks
    assert layers["series.translate_distinct_ratio"] == 0.5
    assert layers["eigen.composite_eigencheck_s"] > 0
    main_span = [s for s in spans if s[1] == "cli.main"]
    assert len(main_span) == 1 and main_span[0][2] is None
    assert sum(s[4] for s in spans) == pytest.approx(main_span[0][3])
