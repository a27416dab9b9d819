"""Orbit construction: lambda selection, the stacked fit, two-route checks."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import weylcalc.eigen
import weylcalc.orbit
from weylcalc.cli import main
from weylcalc.eigen import (
    EigenFamily,
    eigenfunction,
    eigenvalue_of,
    exponential_family,
    family_from_kernel,
)
from weylcalc.errors import BudgetExceeded, ScheduleOverflow, SearchExhausted
from weylcalc.operators import (
    CompositeOperator,
    ConvolutionOperator,
    WeylOperator,
    apply_composite,
    diff_op,
)
from weylcalc.orbit import (
    SCHEDULE_CAP,
    SEARCH_RADIUS_CAP,
    OrbitProblem,
    construct_orbit,
    direct_power_values,
    select_expanding_lambdas,
    targets_met,
    verify_orbit,
)
from weylcalc.series import (
    DiskSpec,
    evaluate_grid,
    gaussian_series,
    linear_combine,
    make_series,
)


@pytest.fixture(scope="module")
def setting():
    t = WeylOperator(diff_op(1), 1.0)
    family = family_from_kernel(t, gaussian_series(128))
    ident = CompositeOperator(t, np.array([0.0, 1.0]))
    quad = CompositeOperator(t, np.array([0.0, 1.0, 1.0]))
    return t, family, ident, quad


# ---------------------------------------------------------------------------
# lambda selection


def test_selected_lambdas_sit_on_level_set(setting):
    _, family, _, quad = setting
    lams = select_expanding_lambdas(quad, 12, margin=1.0, family=family)
    mags = np.array([abs(eigenvalue_of(quad, family, lam)) for lam in lams.points])
    assert np.all(mags >= 2.0)
    # bisection clusters the points near the level set
    assert np.all(mags <= 2.0 * 1.01)


def test_select_respects_count_and_distinctness(setting):
    _, family, ident, _ = setting
    lams = select_expanding_lambdas(ident, 7, margin=0.5, family=family)
    assert len(lams) == 7
    assert np.unique(lams.points).size == 7


def test_search_exhausted_beyond_the_radius_cap(setting):
    # L = T has |mu| = |lambda|; the last radius marched below
    # SEARCH_RADIUS_CAP = 64 is 0.05 * 1.25^32 = 63.1, short of 1 + 63
    _, family, ident, _ = setting
    with pytest.raises(SearchExhausted, match="on ray 0/4"):
        select_expanding_lambdas(ident, 4, margin=63.0, family=family)


def test_search_exhausted_names_the_first_failing_ray(setting):
    # |lambda + lambda^2| >= 3950 needs r = 62.4 on ray 0, about 62.8 on
    # rays 1 and 3, and r = 63.4 on ray 2 (lambda = -r), past the last
    # radius marched below SEARCH_RADIUS_CAP = 64, 0.05 * 1.25^32 = 63.1
    _, family, _, quad = setting
    with pytest.raises(SearchExhausted, match="on ray 2/4"):
        select_expanding_lambdas(quad, 4, margin=3949.0, family=family)


def _select_ray_by_ray(c, count, margin, family):
    # every ray marched and bisected on its own, in Python complex scalars
    level = 1.0 + margin
    points = []
    for i in range(count):
        theta = 2 * math.pi * i / count
        direction = complex(math.cos(theta), math.sin(theta))
        lo, hi, r = 0.0, None, 0.05
        while hi is None and r <= SEARCH_RADIUS_CAP:
            if abs(eigenvalue_of(c, family, r * direction)) >= level:
                hi = r
            else:
                lo, r = r, r * 1.25
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(eigenvalue_of(c, family, mid * direction)) >= level:
                hi = mid
            else:
                lo = mid
        points.append(hi * direction)
    return np.array(points)


@pytest.mark.parametrize("case", ["ident", "quad", "complex_a", "exponential"])
def test_selection_of_all_rays_at_once_equals_ray_by_ray(setting, case):
    t, family, ident, quad = setting
    l_quad = np.array([0.0, 1.0, 1.0])
    c, family = {
        "ident": (ident, family),
        "quad": (quad, family),
        "complex_a": (
            CompositeOperator(WeylOperator(diff_op(1), 0.6 - 0.8j), l_quad),
            EigenFamily(f0=gaussian_series(8)),
        ),
        "exponential": (
            CompositeOperator(WeylOperator(diff_op(1), 0.0), l_quad),
            exponential_family(16),
        ),
    }[case]
    lams = select_expanding_lambdas(c, 24, margin=2.0, family=family)
    expected = _select_ray_by_ray(c, 24, 2.0, family)
    assert np.array_equal(lams.points.view(np.float64), expected.view(np.float64))


def test_exponential_family_symbol_composes():
    # a = 0, T = D: symbol of L(T) at e^{lambda z} is L(lambda)
    t = WeylOperator(diff_op(1), 0.0)
    c = CompositeOperator(t, np.array([0.0, 1.0, 1.0]))

    assert eigenvalue_of(c, exponential_family(64), 2.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# construction


def test_zero_target_yields_negligible_block(setting):
    _, family, ident, _ = setting
    problem = OrbitProblem(ident, family, [make_series(np.zeros(4))], epsilon=0.1)
    con = construct_orbit(problem)
    assert con.schedule == [1]
    assert np.abs(con.coords).max() <= 1e-8
    assert con.report["per_target"][0]["achieved_error"] <= 1e-8


def test_schedule_strictly_increasing(setting):
    _, family, ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0]),
               make_series([0.0, 0.0, 1.0])]
    con = construct_orbit(OrbitProblem(ident, family, targets, epsilon=0.1))
    assert all(a < b for a, b in zip(con.schedule, con.schedule[1:]))


def test_construct_orbit_translates_each_lambda_once(setting, monkeypatch):
    # one basis serves the fit, the member values, f and the verification,
    # so the 16 lambdas are translated once
    _, family, ident, _ = setting
    calls = []
    member_coeffs = weylcalc.eigen._member_coeffs

    def counted(family, lams):
        calls.extend(lams)
        return member_coeffs(family, lams)

    # patched wherever the name is bound, so a rebuild outside eigen counts
    for module in (weylcalc.eigen, weylcalc.orbit):
        if hasattr(module, "_member_coeffs"):
            monkeypatch.setattr(module, "_member_coeffs", counted)
    problem = OrbitProblem(ident, family, [make_series([0.0, 1.0])])
    verify_orbit(construct_orbit(problem), problem)
    assert len(calls) == 16


def test_budget_exceeded_carries_diagnostics(setting):
    _, family, ident, _ = setting
    problem = OrbitProblem(ident, family, [make_series([1.0])], epsilon=1e-4)
    with pytest.raises(BudgetExceeded) as exc:
        construct_orbit(problem, lambda_count=4)
    assert exc.value.target_index == 0
    assert exc.value.residual > exc.value.budget


def test_schedule_overflow_raised(setting, monkeypatch):
    # measured: the schedule is [5, 10], so every cap below 10 overflows
    _, family, ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
    monkeypatch.setattr("weylcalc.orbit.SCHEDULE_CAP", 9)
    with pytest.raises(ScheduleOverflow) as info:
        construct_orbit(OrbitProblem(ident, family, targets, epsilon=0.1))
    assert info.value.attempted > info.value.cap == 9


def test_schedule_stays_within_double_range(setting):
    # |mu| = 51 at margin 50: the stacked system would leave the double
    # range long before SCHEDULE_CAP, so the search ends early and quietly
    _, family, ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScheduleOverflow) as info:
            construct_orbit(
                OrbitProblem(ident, family, targets, epsilon=0.1), margin=50.0
            )
    assert info.value.attempted > info.value.cap
    assert info.value.cap < SCHEDULE_CAP


def test_margin_lost_in_one_plus_margin_is_rejected(setting):
    _, family, ident, _ = setting
    with pytest.raises(ValueError, match="1 \\+ margin must exceed 1"):
        select_expanding_lambdas(ident, 4, margin=1e-300, family=family)


# ---------------------------------------------------------------------------
# two-route verification


def test_single_block_bookkeeping_small_n(setting):
    # apply_composite iterated n <= 10 times on one eigenfunction matches
    # the eigenvalue bookkeeping within truncation-tail noise
    _, family, ident, _ = setting
    lam = 1.5
    mu = 1.5  # L(a lambda) with L = identity, a = 1
    f = eigenfunction(family, lam)
    pts = DiskSpec(1.0, 32).boundary()
    base = evaluate_grid(f, pts)
    g = f
    for n in range(1, 11):
        g = apply_composite(ident, g)
        assert np.abs(evaluate_grid(g, pts) - mu**n * base).max() <= 1e-6


def test_direct_power_route_matches_double_route_small_n(setting):
    # the exact route agrees with double-precision
    # apply_composite while rounding amplification is still negligible
    _, family, _, quad = setting
    f = linear_combine(
        [(0.4, eigenfunction(family, 0.8)), (-0.2j, eigenfunction(family, -0.5j))]
    )
    pts = DiskSpec(1.0, 16).boundary()
    g = f
    for n in range(1, 4):
        g = apply_composite(quad, g)
        direct = direct_power_values(quad, f, n, pts)
        assert np.abs(direct - evaluate_grid(g, pts)).max() <= 1e-10


def test_direct_power_route_is_exact_at_large_n(setting):
    # (T + T^2)^30 on the 24 coefficients of 1 + z/2, T = D - zI truncated
    # to them, in plain integers (2 f has integer coefficients), then the
    # values at the fourth roots of unity, each rounded once
    _, _, _, quad = setting
    size = 24
    g = [2, 1] + [0] * (size - 2)

    def t(v):
        up, down = v[1:] + [0], [0] + v[:-1]
        return [(i + 1) * u - w for i, (u, w) in enumerate(zip(up, down))]

    for _ in range(30):
        tg = t(g)
        g = [x + y for x, y in zip(tg, t(tg))]
    pts = np.array([1, 1j, -1, -1j])
    want = []
    for z in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        re, im, zr, zi = 0, 0, 1, 0
        for coef in g:
            re, im = re + coef * zr, im + coef * zi
            zr, zi = zr * z[0] - zi * z[1], zr * z[1] + zi * z[0]
        want.append(complex(re / 2, im / 2))
    assert max(abs(v) for v in g) > 2**100  # far beyond double precision
    f = make_series([1.0, 0.5] + [0.0] * (size - 2))
    got = direct_power_values(quad, f, 30, pts)
    assert np.array_equal(got, np.array(want))


def test_acceptance_instance_two_routes(setting):
    _, family, ident, _ = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, family, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    for row in con.report["per_target"]:
        assert row["achieved_error"] < 0.1
    rows = verify_orbit(con, problem)
    assert targets_met(rows, 0.1)
    assert rows[0]["method_discrepancy"] <= 1e-6
    for row in rows:
        assert row["eigen_error_full"] < 0.1
        if row["method_discrepancy"] is not None:
            assert row["method_discrepancy"] <= 0.1 / 10


def test_iterate_past_the_direct_route_is_unverified(setting, monkeypatch):
    # the eigen-sum error repeats the constructor's bookkeeping; an iterate
    # the direct route did not check does not count as met
    _, family, ident, _ = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, family, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    monkeypatch.setattr("weylcalc.orbit.DIRECT_CAP", con.schedule[0])
    rows = verify_orbit(con, problem)
    assert rows[-1]["method_discrepancy"] is None
    assert rows[-1]["eigen_error_full"] <= 0.1
    assert not targets_met(rows, 0.1)


def test_tampered_weights_are_detected(setting):
    # corrupting the coordinates of f must show up in the verification pass
    _, family, ident, _ = setting
    targets = [make_series([1.0], "1")]
    problem = OrbitProblem(ident, family, targets, epsilon=0.1)
    con = construct_orbit(problem)
    good = verify_orbit(con, problem)[0]["eigen_error_full"]
    tampered = dataclasses.replace(con, coords=con.coords * 1.5)
    assert verify_orbit(tampered, problem)[0]["eigen_error_full"] > 10 * max(
        good, 1e-3
    )


def test_operator_5_two_targets_met(tmp_path):
    # the paper's operator (5), L(T) = T + T^2, with targets 1 and z
    problem = json.dumps({
        "operator": {"d": [[0, 0], [1, 0]], "a": [1, 0],
                     "L": [[0, 0], [1, 0], [1, 0]]},
        "targets": [{"coeffs": [[1, 0]]}, {"coeffs": [[0, 0], [1, 0]]}],
        "radius": 1.0,
        "epsilon": 0.1,
    })
    assert main(["construct-orbit", "--problem", problem,
                 "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert doc["report"]["all_targets_met"] is True
    for row in doc["verification"]:
        assert row["eigen_error_full"] <= 0.1
        assert row["method_discrepancy"] <= 0.1 / 10


def test_blocks_sum_to_the_coordinates(setting):
    # the block form sum_b w_b mu^(n - n_b) of A^n f is x mu^n
    _, family, ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
    con = construct_orbit(OrbitProblem(ident, family, targets, epsilon=0.1))
    mu = con.eigenvalues
    blocks = con.blocks()
    assert [(j, n) for j, n, _ in blocks] == list(enumerate(con.schedule))
    for n in [0] + con.schedule:
        amp = sum(w * mu ** float(n - n_b) for _, n_b, w in blocks)
        assert np.allclose(amp, con.coords * mu ** float(n), rtol=1e-12, atol=0)


def test_quadratic_symbol_pipeline_honest(setting):
    # the paper-instance polynomial symbol completes with honest reports
    _, family, _, quad = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(quad, family, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    for row in con.report["per_target"]:
        assert np.isfinite(row["achieved_error"])
    assert len(con.schedule) == 2


def test_problem_validation(setting):
    _, family, ident, _ = setting
    with pytest.raises(ValueError):
        OrbitProblem(ident, family, [], epsilon=0.1)
    with pytest.raises(ValueError):
        OrbitProblem(ident, family, [make_series([1.0])], epsilon=-1.0)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            OrbitProblem(ident, family, [make_series([1.0])], epsilon=bad)
        with pytest.raises(ValueError):
            OrbitProblem(ident, family, [make_series([1.0])], radius=bad)
    const = CompositeOperator(
        WeylOperator(diff_op(1), 1.0), np.array([2.0])
    )
    with pytest.raises(ValueError):
        OrbitProblem(const, family, [make_series([1.0])])
