"""Acceptance suite: one criterion per test, one printed verdict line each.

Each test prints ``ACCEPTANCE <k> (<name>): PASS|FAIL`` directly to the
terminal (outside pytest capture) and enforces both the numeric
thresholds and the runtime budget of its criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_weyl_operators, unit_disk_complex
from weylcalc.cli import main as cli_main
from weylcalc.eigen import (
    EigenFamily,
    completeness_bases,
    completeness_fit,
    composite_eigencheck,
    eigen_residual,
    inverse_integer_lambdas,
)
from weylcalc.errors import NotWeyl
from weylcalc.operators import (
    CompositeOperator,
    WeylOperator,
    apply_weyl,
    commutator_matrix,
    decompose,
    diff_op,
    ladder_check,
    matrix_on_monomials,
    scalar_identity_diagnostics,
)
from weylcalc.orbit import OrbitProblem, construct_orbit, verify_orbit
from weylcalc.series import (
    TaylorSeries,
    disk_sup_norm,
    evaluate_grid,
    gaussian_series,
    linear_combine,
    multiply_by_poly,
)

D_MINUS_Z_JSON = '{"d":[[0,0],[1,0]],"a":[1,0]}'
TARGETS_JSON = (
    '[{"coeffs":[[1,0]],"label":"1"},{"coeffs":[[0,0],[1,0]],"label":"z"},'
    '{"coeffs":[[0,0],[0,0],[1,0]],"label":"z^2"}]'
)


@pytest.fixture(scope="module")
def gaussian_family():
    t = WeylOperator(diff_op(1), 1.0)
    return t, EigenFamily(t)


class _Criterion:
    """Collects checks, prints the verdict line, enforces the time budget."""

    def __init__(self, number, name, budget_s, capsys):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.capsys = capsys
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.budget:
            self.failures.append(
                f"runtime {elapsed:.1f}s exceeds {self.budget:.0f}s"
            )
        verdict = "PASS" if not self.failures else "FAIL"
        with self.capsys.disabled():
            print(
                f"ACCEPTANCE {self.number} ({self.name}): {verdict} "
                f"[{elapsed:.2f}s]"
            )
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_commutation_identity(capsys):
    crit = _Criterion(1, "commutation identity", 5.0, capsys)
    for t in random_weyl_operators(50, seed=0):
        comm = commutator_matrix(t, diff_op(1), 64)
        a_est, offdiag, spread = scalar_identity_diagnostics(comm)
        crit.check(offdiag <= 1e-12, f"offdiag {offdiag:.2e}")
        crit.check(spread <= 1e-12, f"spread {spread:.2e}")
        crit.check(abs(a_est - t.a) <= 1e-12, f"a error {abs(a_est - t.a):.2e}")
    crit.finish()


def test_criterion_2_decompose_round_trip(capsys):
    crit = _Criterion(2, "Theorem 5 round-trip", 5.0, capsys)
    for t in random_weyl_operators(50, seed=0):
        a, m = decompose(matrix_on_monomials(t, 64))
        crit.check(abs(a - t.a) <= 1e-10, f"a error {abs(a - t.a):.2e}")
        n = max(m.d.size, t.m.d.size)
        got = np.zeros(n, dtype=np.complex128)
        want = np.zeros(n, dtype=np.complex128)
        got[: m.d.size] = m.d
        want[: t.m.d.size] = t.m.d
        err = np.abs(got - want).max()
        crit.check(err <= 1e-10, f"d error {err:.2e}")
    # non-Weyl probe: multiplication by z^2
    n_cap = 64
    entries = np.zeros((n_cap + 3, n_cap + 1), dtype=np.complex128)
    for n in range(n_cap + 1):
        entries[n + 2, n] = 1.0
    try:
        decompose(entries)
        crit.check(False, "z^2 I not flagged as NotWeyl")
    except NotWeyl:
        pass
    crit.finish()


def test_criterion_3_kernel_examples(capsys):
    crit = _Criterion(3, "kernel examples", 1.0, capsys)
    basis_a = kernel = None
    from weylcalc.kernel_solver import kernel_basis

    basis_a = kernel_basis(WeylOperator(diff_op(1), 1.0), 41)
    c = basis_a.solutions[0].coeffs
    for k in range(20):
        expected = 1.0 / (2**k * math.factorial(k))
        rel = abs(c[2 * k] - expected) / expected
        crit.check(rel <= 1e-12, f"Gaussian c_{2 * k} rel error {rel:.2e}")
    basis_b = kernel_basis(WeylOperator(diff_op(2), 1.0), 40)
    for sol, res in zip(basis_b.solutions, basis_b.residuals):
        cc = sol.coeffs
        for n in range(len(cc) - 3):
            want = cc[n] / ((n + 3) * (n + 2))
            err = abs(cc[n + 3] - want)
            crit.check(
                err <= 1e-12 * max(1.0, abs(want)),
                f"Airy recurrence at n={n}: {err:.2e}",
            )
        crit.check(res <= 1e-10, f"Airy residual {res:.2e}")
    crit.finish()


def test_criterion_4_ladder_identity(capsys):
    crit = _Criterion(4, "ladder identity", 1.0, capsys)
    res = ladder_check(WeylOperator(diff_op(1), 1.0), gaussian_series(128), 5)
    crit.check(max(res) <= 1e-8, f"worst ladder residual {max(res):.2e}")
    crit.finish()


def test_criterion_5_eigen_relation(capsys, gaussian_family):
    crit = _Criterion(5, "eigen-relation", 10.0, capsys)
    t, family = gaussian_family
    comp = EigenFamily(CompositeOperator(t, np.array([0.0, 1.0, 1.0])))
    axis = np.linspace(-2 / np.sqrt(2), 2 / np.sqrt(2), 5)
    lams = (axis[:, None] + 1j * axis[None, :]).ravel()
    worst_e = float(eigen_residual(family, lams).max())
    worst_c = float(composite_eigencheck(comp, lams).max())
    crit.check(worst_e <= 1e-6, f"eigen residual {worst_e:.2e}")
    crit.check(worst_c <= 1e-5, f"composite residual {worst_c:.2e}")
    crit.finish()


def test_criterion_6_conjugation(capsys):
    crit = _Criterion(6, "Theorem 6 conjugation", 10.0, capsys)
    rng = np.random.default_rng(0)
    t = WeylOperator(diff_op(1), 1.0)
    gauss = gaussian_series(128)
    for _ in range(20):
        deg = int(rng.integers(0, 21))
        g = np.atleast_1d(unit_disk_complex(rng, deg + 1))
        lhs = multiply_by_poly(gauss, g)
        gk = g
        for k in range(1, 6):
            lhs = apply_weyl(t, lhs)
            gk = gk[1:] * np.arange(1, gk.size) if gk.size > 1 else np.zeros(1)
            rhs = multiply_by_poly(gauss, gk)
            err = disk_sup_norm(linear_combine([(1.0, lhs), (-1.0, rhs)]))
            crit.check(err <= 1e-8, f"deg={deg} k={k}: {err:.2e}")
    crit.finish()


def test_criterion_7_completeness_curve(capsys, gaussian_family, tmp_path):
    crit = _Criterion(7, "completeness evidence", 60.0, capsys)
    _, family = gaussian_family
    targets = [
        TaylorSeries([1.0], "1"),
        TaylorSeries([0.0, 1.0], "z"),
        TaylorSeries([0.0, 0.0, 1.0], "z^2"),
    ]
    for target in targets:
        residuals = []
        for count in (5, 10, 20, 40):
            [basis] = completeness_bases(family, [inverse_integer_lambdas(count)])
            [fit] = completeness_fit(
                basis, evaluate_grid(target.coeffs[None], basis.circles), ridge=0.0
            )
            residuals.append(fit.residual_norm)
        monotone = all(
            later <= earlier * (1 + 1e-9)
            for earlier, later in zip(residuals, residuals[1:])
        )
        crit.check(
            monotone, f"{target.label}: residuals not non-increasing {residuals}"
        )
        crit.check(
            residuals[-1] <= residuals[0] / 10,
            f"{target.label}: drop factor only "
            f"{residuals[0] / max(residuals[-1], 1e-300):.1f}",
        )
    # mandatory curve artifact via the CLI
    code = cli_main([
        "complete-fit", "--op", D_MINUS_Z_JSON, "--targets", TARGETS_JSON,
        "--ridge", "0", "--outdir", str(tmp_path),
    ])
    crit.check(code == 0, f"complete-fit exit code {code}")
    crit.check(
        (tmp_path / "residual_curve.csv").exists(), "curve artifact missing"
    )
    crit.finish()


def test_criterion_8_orbit_construction(capsys, gaussian_family):
    crit = _Criterion(8, "orbit construction", 300.0, capsys)
    t, _ = gaussian_family
    targets = [TaylorSeries([1.0], "1"), TaylorSeries([0.0, 1.0], "z")]
    ident = EigenFamily(CompositeOperator(t, np.array([0.0, 1.0])))
    problem = OrbitProblem(ident, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    for row in con.report["per_target"]:
        crit.check(
            row["achieved_error"] < 0.1,
            f"target {row['target']} error {row['achieved_error']:.2e}",
        )
    rows = verify_orbit(con)
    for row in rows:
        crit.check(
            row["eigen_error_full"] < 0.1,
            f"full vector at n={row['n']}: error {row['eigen_error_full']:.2e}",
        )
        disc = row["method_discrepancy"]
        crit.check(
            disc <= 0.1 / 10,
            f"two-route discrepancy at n={row['n']}: {disc}",
        )
    disc = rows[0]["method_discrepancy"]
    crit.check(
        disc <= 1e-6,
        f"two-route discrepancy at n={con.schedule[0]}: {disc}",
    )
    # the paper's operator (5): honest completion, success or diagnostics
    quad = EigenFamily(CompositeOperator(t, np.array([0.0, 1.0, 1.0])))
    problem_q = OrbitProblem(quad, targets, radius=1.0, epsilon=0.1)
    try:
        con_q = construct_orbit(problem_q)
        for row in con_q.report["per_target"]:
            crit.check(
                np.isfinite(row["achieved_error"]),
                f"quadratic target {row['target']} non-finite error",
            )
    except Exception as exc:  # BudgetExceeded et al. must carry diagnostics
        crit.check(
            hasattr(exc, "target_index"), f"opaque failure: {exc!r}"
        )
    crit.finish()


def test_criterion_9_determinism(capsys, tmp_path, monkeypatch):
    crit = _Criterion(9, "determinism", 120.0, capsys)
    monkeypatch.setenv("WEYLCALC_TIMESTAMP", "2026-01-01T00:00:00+00:00")
    orbit_problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0], "L": [[0, 0], [1, 0]]},
        "targets": [{"coeffs": [[1, 0]], "label": "1"},
                    {"coeffs": [[0, 0], [1, 0]], "label": "z"}],
        "radius": 1.0,
        "epsilon": 0.1,
    })
    invocations = {
        "kernel": ["kernel", "--op", D_MINUS_Z_JSON, "--terms", "41"],
        "commutator": ["commutator-check", "--op", D_MINUS_Z_JSON, "--ncap", "64"],
        "eigencheck": ["eigencheck", "--op", D_MINUS_Z_JSON],
        "fit": ["complete-fit", "--op", D_MINUS_Z_JSON, "--targets",
                TARGETS_JSON, "--ridge", "0"],
        "orbit": ["construct-orbit", "--problem", orbit_problem],
        "decompose": ["decompose", "--op", D_MINUS_Z_JSON, "--ncap", "64"],
    }
    for tag, argv in invocations.items():
        dirs = [tmp_path / f"{tag}_a", tmp_path / f"{tag}_b"]
        for d in dirs:
            code = cli_main(argv + ["--outdir", str(d)])
            crit.check(code == 0, f"{tag}: exit code {code}")
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        crit.check(files_a == files_b, f"{tag}: artifact sets differ")
        for name in files_a:
            same = (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            crit.check(same, f"{tag}: {name} not byte-identical")
    crit.finish()
