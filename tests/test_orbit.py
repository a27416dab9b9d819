"""Orbit construction: lambda selection, the stacked fit, two-route checks."""

import dataclasses
import json
import math
import random
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylcalc.eigen
import weylcalc.orbit
from conftest import readme_cli_examples, roots_of_unity
from weylcalc.cli import main
from weylcalc.eigen import EigenFamily, eigenfunction, eigenvalue_of
from weylcalc.errors import (
    BudgetExceeded,
    MalformedSpec,
    NonFiniteCoefficient,
    ScheduleOverflow,
    SearchExhausted,
)
from weylcalc.operators import (
    CompositeOperator,
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
from weylcalc.series import DiskSpec, TaylorSeries, evaluate_grid, linear_combine


@pytest.fixture(scope="module")
def setting():
    """The families of L(T) = T and L(T) = T + T^2, T = D - zI."""
    t = WeylOperator(diff_op(1), 1.0)
    ident = EigenFamily(CompositeOperator(t, np.array([0.0, 1.0])))
    quad = EigenFamily(CompositeOperator(t, np.array([0.0, 1.0, 1.0])))
    return ident, quad


# ---------------------------------------------------------------------------
# lambda selection


def test_selected_lambdas_sit_on_level_set(setting):
    _, quad = setting
    lams = select_expanding_lambdas(quad.op, 12, margin=1.0)
    mags = np.array([abs(eigenvalue_of(quad.op, lam)) for lam in lams.points])
    assert np.all(mags >= 2.0)
    # bisection clusters the points near the level set
    assert np.all(mags <= 2.0 * 1.01)


def test_select_respects_count_and_distinctness(setting):
    ident, _ = setting
    lams = select_expanding_lambdas(ident.op, 7, margin=0.5)
    assert len(lams) == 7
    assert np.unique(lams.points).size == 7


def test_search_exhausted_beyond_the_radius_cap(setting):
    # L = T has |mu| = |lambda|; the last radius marched below
    # SEARCH_RADIUS_CAP = 64 is 0.05 * 1.25^32 = 63.1, short of 1 + 63
    ident, _ = setting
    with pytest.raises(SearchExhausted, match="on ray 0/4"):
        select_expanding_lambdas(ident.op, 4, margin=63.0)


def test_search_exhausted_names_the_first_failing_ray(setting):
    # |lambda + lambda^2| >= 3950 needs r = 62.4 on ray 0, about 62.8 on
    # rays 1 and 3, and r = 63.4 on ray 2 (lambda = -r), past the last
    # radius marched below SEARCH_RADIUS_CAP = 64, 0.05 * 1.25^32 = 63.1
    _, quad = setting
    with pytest.raises(SearchExhausted, match="on ray 2/4"):
        select_expanding_lambdas(quad.op, 4, margin=3949.0)


def _select_ray_by_ray(c, count, margin):
    # every ray marched and bisected on its own, in Python complex scalars
    level = 1.0 + margin
    points = []
    for i in range(count):
        theta = 2 * math.pi * i / count
        direction = complex(math.cos(theta), math.sin(theta))
        lo, hi, r = 0.0, None, 0.05
        while hi is None and r <= SEARCH_RADIUS_CAP:
            if abs(eigenvalue_of(c, r * direction)) >= level:
                hi = r
            else:
                lo, r = r, r * 1.25
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(eigenvalue_of(c, mid * direction)) >= level:
                hi = mid
            else:
                lo = mid
        points.append(hi * direction)
    return np.array(points)


@pytest.mark.parametrize("case", ["ident", "quad", "complex_a", "exponential"])
def test_selection_of_all_rays_at_once_equals_ray_by_ray(setting, case):
    # all radii marched in one evaluation, and the bisection stopped at its
    # first step that moves no bracket, give the bits of the ray-by-ray
    # march and its 60 bisection steps, for every count and margin
    ident, quad = setting
    l_quad = np.array([0.0, 1.0, 1.0])
    c = {
        "ident": ident.op,
        "quad": quad.op,
        "complex_a": CompositeOperator(WeylOperator(diff_op(1), 0.6 - 0.8j), l_quad),
        "exponential": CompositeOperator(WeylOperator(diff_op(1), 0.0), l_quad),
    }[case]
    for count in (1, 7, 16, 24, 48):
        for margin in (0.5, 2.0, 5.0):
            lams = select_expanding_lambdas(c, count, margin)
            expected = _select_ray_by_ray(c, count, margin)
            assert np.array_equal(lams.points.view(np.float64),
                                  expected.view(np.float64)), (count, margin)


def test_selection_ignores_overflow_past_the_first_hit():
    # |lambda|^200 >= 3 from r ~ 1.0055 on, and leaves the double range
    # from r ~ 34.8 on: the march evaluates those radii too and discards
    # them, without a floating-point warning
    l_high = np.zeros(201)
    l_high[200] = 1.0
    c = CompositeOperator(WeylOperator(diff_op(1), 1.0), l_high)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lams = select_expanding_lambdas(c, 7, margin=2.0)
    expected = _select_ray_by_ray(c, 7, 2.0)
    assert np.array_equal(lams.points.view(np.float64), expected.view(np.float64))


def test_bisection_stops_at_its_first_step_that_moves_no_bracket(setting, monkeypatch):
    # L = T on 7 rays: the march is one evaluation, and the bisection
    # ends before its 60 steps, at a step that changes no endpoint
    ident, _ = setting
    calls = []
    eigenvalue = weylcalc.orbit.eigenvalue_of

    def counted(c, lam):
        calls.append(np.shape(lam))
        return eigenvalue(c, lam)

    monkeypatch.setattr(weylcalc.orbit, "eigenvalue_of", counted)
    select_expanding_lambdas(ident.op, 7, margin=2.0)
    radii = math.floor(math.log(SEARCH_RADIUS_CAP / 0.05) / math.log(1.25)) + 1
    assert calls[0] == (radii, 7)
    assert all(shape == (7,) for shape in calls[1:])
    assert len(calls) < 1 + 60


def test_exponential_family_symbol_composes():
    # a = 0, T = D: symbol of L(T) at e^{lambda z} is L(lambda)
    t = WeylOperator(diff_op(1), 0.0)
    c = CompositeOperator(t, np.array([0.0, 1.0, 1.0]))

    assert eigenvalue_of(c, 2.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# construction


def test_zero_target_yields_negligible_block(setting):
    ident, _ = setting
    problem = OrbitProblem(ident, [TaylorSeries(np.zeros(4))], epsilon=0.1)
    con = construct_orbit(problem)
    assert con.schedule == [1]
    assert np.abs(con.coords).max() <= 1e-8
    assert con.report["per_target"][0]["achieved_error"] <= 1e-8


def test_schedule_strictly_increasing(setting):
    ident, _ = setting
    targets = [TaylorSeries([1.0]), TaylorSeries([0.0, 1.0]),
               TaylorSeries([0.0, 0.0, 1.0])]
    con = construct_orbit(OrbitProblem(ident, targets, epsilon=0.1))
    assert all(a < b for a, b in zip(con.schedule, con.schedule[1:]))


def test_construct_orbit_translates_each_lambda_once(setting, monkeypatch):
    # one basis serves the fit, the member values, f and the verification,
    # so the 16 lambdas are translated once
    ident, _ = setting
    calls = []
    member_coeffs = weylcalc.eigen._member_coeffs

    def counted(family, lams):
        calls.extend(lams)
        return member_coeffs(family, lams)

    # patched wherever the name is bound, so a rebuild outside eigen counts
    for module in (weylcalc.eigen, weylcalc.orbit):
        if hasattr(module, "_member_coeffs"):
            monkeypatch.setattr(module, "_member_coeffs", counted)
    problem = OrbitProblem(ident, [TaylorSeries([0.0, 1.0])])
    verify_orbit(construct_orbit(problem))
    assert len(calls) == 16


def test_budget_exceeded_carries_diagnostics(setting):
    ident, _ = setting
    problem = OrbitProblem(ident, [TaylorSeries([1.0])], epsilon=1e-4)
    with pytest.raises(BudgetExceeded) as exc:
        construct_orbit(problem, lambda_count=4)
    assert exc.value.target_index == 0
    assert exc.value.residual > exc.value.budget


def test_schedule_overflow_raised(setting, monkeypatch):
    # measured: the schedule is [5, 10], so every cap below 10 overflows
    ident, _ = setting
    targets = [TaylorSeries([1.0]), TaylorSeries([0.0, 1.0])]
    monkeypatch.setattr("weylcalc.orbit.SCHEDULE_CAP", 9)
    with pytest.raises(ScheduleOverflow) as info:
        construct_orbit(OrbitProblem(ident, targets, epsilon=0.1))
    assert info.value.attempted > info.value.cap == 9


def test_schedule_stays_within_double_range(setting):
    # |mu| = 51 at margin 50: the stacked system would leave the double
    # range long before SCHEDULE_CAP, so the search ends early and quietly
    ident, _ = setting
    targets = [TaylorSeries([1.0]), TaylorSeries([0.0, 1.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScheduleOverflow) as info:
            construct_orbit(
                OrbitProblem(ident, targets, epsilon=0.1), margin=50.0
            )
    assert info.value.attempted > info.value.cap
    assert info.value.cap < SCHEDULE_CAP


def test_margin_lost_in_one_plus_margin_is_rejected(setting):
    ident, _ = setting
    with pytest.raises(ValueError, match="1 \\+ margin must exceed 1"):
        select_expanding_lambdas(ident.op, 4, margin=1e-300)


# ---------------------------------------------------------------------------
# two-route verification


def test_single_block_bookkeeping_small_n(setting):
    # apply_composite iterated n <= 10 times on one eigenfunction matches
    # the eigenvalue bookkeeping within truncation-tail noise
    ident, _ = setting
    lam = 1.5
    mu = 1.5  # L(a lambda) with L = identity, a = 1
    f = eigenfunction(ident, lam)
    circle = DiskSpec(1.0, 32)
    base = evaluate_grid(f.coeffs, circle)
    g = f
    for n in range(1, 11):
        g = apply_composite(ident.op, g)
        assert np.abs(evaluate_grid(g.coeffs, circle) - mu**n * base).max() <= 1e-6


def test_direct_power_route_matches_double_route_small_n(setting):
    # the exact route agrees with double-precision
    # apply_composite while rounding amplification is still negligible
    _, quad = setting
    f = linear_combine(
        [(0.4, eigenfunction(quad, 0.8)), (-0.2j, eigenfunction(quad, -0.5j))]
    )
    circle = DiskSpec(1.0, 16)
    g = f
    for n in range(1, 4):
        g = apply_composite(quad.op, g)
        direct = direct_power_values(quad.op, f, n, circle)
        assert np.abs(direct - evaluate_grid(g.coeffs, circle)).max() <= 1e-10


def test_direct_power_route_is_exact_at_large_n(setting):
    # (T + T^2)^30 on the 24 coefficients of 1 + z/2, T = D - zI truncated
    # to them, in plain integers (2 f has integer coefficients), then the
    # values at the fourth roots of unity, points 0, 2, 4, 6 of M = 8,
    # within 1e-15 of the largest: the values at +-1 are 1000 times smaller
    _, quad = setting
    size = 24
    g = [2, 1] + [0] * (size - 2)

    def t(v):
        up, down = v[1:] + [0], [0] + v[:-1]
        return [(i + 1) * u - w for i, (u, w) in enumerate(zip(up, down))]

    for _ in range(30):
        tg = t(g)
        g = [x + y for x, y in zip(tg, t(tg))]
    want = []
    for z in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        re, im, zr, zi = 0, 0, 1, 0
        for coef in g:
            re, im = re + coef * zr, im + coef * zi
            zr, zi = zr * z[0] - zi * z[1], zr * z[1] + zi * z[0]
        want.append(complex(re / 2, im / 2))
    assert max(abs(v) for v in g) > 2**100  # far beyond double precision
    f = TaylorSeries([1.0, 0.5] + [0.0] * (size - 2))
    got = direct_power_values(quad.op, f, 30, DiskSpec(1.0, 8))[::2]
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _exp_half_z2(sign: int, size: int) -> list:
    """The first ``size`` coefficients of e^(sign z^2 / 2), exactly."""
    c = [Fraction(0)] * size
    for m in range((size + 1) // 2):
        c[2 * m] = Fraction(sign, 2) ** m / math.factorial(m)
    return c


@pytest.mark.parametrize("grid_points", [128, 64, 8])
def test_direct_power_route_meets_a_known_orbit(grid_points):
    # A MacLane-type vector for T = D - zI: T^n (e^(z^2/2) h) = e^(z^2/2)
    # D^n h, so with h = sum_j D^(-n_j) r_j, r_j the degree-8 Taylor
    # polynomial of e^(-z^2/2) q_j and D^(-n) z^k = k!/(k+n)! z^(k+n),
    # T^(n_1) f is e^(z^2/2) r_1 ~ 1 plus terms below 1e-6; built in
    # fractions and rounded once to 128 doubles.  The misses are those of
    # the Taylor polynomials, the same on every circle, and pinned to two
    # digits: a dropped fold on the 8-point circle moves them to 3.8e-6
    # and 5.1e-6.  From n = 27 on, the rounding of f dominates.
    size, schedule = 128, [9, 18, 27, 36]
    h = [Fraction(0)] * size
    for j, n in enumerate(schedule):
        r = [Fraction(0)] * j + _exp_half_z2(-1, 9 - j)
        for k, c in enumerate(r):
            h[k + n] += c * Fraction(math.factorial(k), math.factorial(k + n))
    g = _exp_half_z2(1, size)
    f = TaylorSeries([float(sum(g[k - i] * h[i] for i in range(k + 1)))
                      for k in range(size)])
    t = WeylOperator(diff_op(1), 1.0)
    circle = DiskSpec(1.0, grid_points)
    z = np.exp(2j * np.pi * np.arange(grid_points) / grid_points)
    misses = [np.abs(direct_power_values(t, f, n, circle) - z**j).max()
              for j, n in enumerate(schedule[:2])]
    assert [f"{miss:.1e}" for miss in misses] == ["4.0e-04", "3.9e-03"]


def test_acceptance_instance_two_routes(setting):
    ident, _ = setting
    targets = [TaylorSeries([1.0], "1"), TaylorSeries([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    for row in con.report["per_target"]:
        assert row["achieved_error"] < 0.1
    rows = verify_orbit(con)
    assert targets_met(rows, 0.1)
    assert rows[0]["method_discrepancy"] <= 1e-6
    for row in rows:
        assert row["eigen_error_full"] < 0.1
        assert row["method_discrepancy"] <= 0.1 / 10


def test_every_scheduled_iterate_has_a_direct_row(setting):
    # however late the iterate, both routes run, and success is decided on
    # their numbers alone
    ident, _ = setting
    targets = [TaylorSeries([1.0], "1"), TaylorSeries([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    rows = verify_orbit(dataclasses.replace(con, schedule=[41, 42]))
    assert [row["n"] for row in rows] == [41, 42]
    for row in rows:
        assert isinstance(row["method_discrepancy"], float)
        assert math.isfinite(row["method_discrepancy"])
    assert not targets_met(rows, 0.1)
    worst = max(max(row["eigen_error_full"], row["method_discrepancy"]) for row in rows)
    assert targets_met(rows, 10 * worst)


def test_direct_route_past_the_double_range_names_the_iterate(setting, monkeypatch):
    # direct values past the double range are an outcome rather than a
    # discrepancy; the route's own values past it are covered by
    # test_verify_orbit_past_the_double_range_names_the_iterate
    ident, _ = setting
    targets = [TaylorSeries([1.0], "1"), TaylorSeries([0.0, 1.0], "z")]
    con = construct_orbit(OrbitProblem(ident, targets, epsilon=0.1))
    assert con.schedule == [5, 10]

    def overflowing(c, f, n, circle):
        return np.full(circle.grid_points, complex(np.inf, 0.0))

    monkeypatch.setattr(weylcalc.orbit, "direct_power_values", overflowing)
    with pytest.raises(NonFiniteCoefficient) as exc:
        verify_orbit(con)
    assert str(exc.value) == "direct route at n = 5 leaves the double range"


# ---------------------------------------------------------------------------
# the direct route's values at the exact roots of unity


def _direct_values(g, e, circle):
    """direct_power_values where A^n f has the exact coefficients g / 2^e."""
    with mock.patch.object(weylcalc.orbit, "exact_power", lambda c, coeffs, n: (g, e)):
        return direct_power_values(None, TaylorSeries([0.0]), 0, circle)


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


def _gaussian_ints(rng, n_coeffs, e, magnitude, decay, radius=1.0):
    """(2, n_coeffs) Python ints with |g_k| R^k / 2^e about 2^(magnitude -
    decay k), random in every bit below that, a few of them zero."""
    g = np.zeros((2, n_coeffs), dtype=object)
    for k in range(n_coeffs):
        bits = e + magnitude - int(decay * k + k * math.log2(radius))
        for part in (0, 1):
            if bits >= 0 and rng.random() > 0.1:
                g[part, k] = rng.randrange(-(2**bits), 2**bits + 1)
    return g


def _exact_circle_values(g, e, circle):
    """p(R w^j) = sum_k g_k R^k w^(j k) / 2^e, each value rounded once:
    the folds F_r = sum_{k = r mod M} g_k R^k / 2^e as exact Fractions,
    then sum_r F_r w^(j r) in 60-digit decimal arithmetic."""
    m = circle.grid_points
    folds = [[Fraction(0)] * m, [Fraction(0)] * m]
    term = Fraction(1, 1 << e)
    for k in range(g.shape[1]):
        for part in (0, 1):
            folds[part][k % m] += g[part, k] * term
        term *= Fraction(circle.radius)
    with localcontext() as ctx:
        ctx.prec = 60
        fr, fi = ([Decimal(x.numerator) / x.denominator for x in part]
                  for part in folds)
        roots = roots_of_unity(m)
        values = []
        for j in range(m):
            re = im = Decimal(0)
            for r in range(m):
                cos, sin = roots[j * r % m]
                re += fr[r] * cos - fi[r] * sin
                im += fr[r] * sin + fi[r] * cos
            values.append(complex(float(re), float(im)))
    return np.array(values)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_coeffs=st.sampled_from([1, 2, 17, 128, 200, 512]),
    grid_points=st.sampled_from([8, 12, 32, 100, 128]),
    radius=st.one_of(st.just(1.0), st.floats(0.5, 3.0)),
    magnitude=st.integers(-1000, 1000),
    extra_bits=st.integers(0, 200),
    decay=st.floats(0.0, 8.0),
)
def test_direct_values_are_the_values_at_the_exact_roots(
        seed, n_coeffs, grid_points, radius, magnitude, extra_bits, decay):
    # folded (N > M) or not, on any radius, from about 2^-1000 to near
    # overflow: within 1e-14 max |p| of the exact values at R w^j
    rng = random.Random(seed)
    e = extra_bits + max(0, 64 - magnitude)
    g = _gaussian_ints(rng, n_coeffs, e, magnitude, decay, radius)
    circle = DiskSpec(radius, grid_points)
    got = _direct_values(g, e, circle)
    want = _exact_circle_values(g, e, circle)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("case", ["past-the-double-range", "near-overflow",
                                  "huge-points", "finite-folds"])
def test_direct_route_past_the_double_range_without_a_warning(case):
    # a fold or a value past the double range leaves some value non-finite,
    # and nothing on the way warns; near overflow the values are finite
    rng, e = random.Random(7), 10
    if case == "finite-folds":
        # every fold is 2^1020, a double; the value at z = 1 is 2^1027
        g, radius = np.zeros((2, 128), dtype=object), 1.0
        g[0] = 1 << (e + 1020)
    else:
        n_coeffs, magnitude, radius = {
            "past-the-double-range": (128, 1030, 1.0),
            "near-overflow": (2, 1000, 1.0),
            "huge-points": (128, 0, 1e10),
        }[case]
        g = _gaussian_ints(rng, n_coeffs, e, magnitude, 0.0)
    circle = DiskSpec(radius, 128)
    with np.errstate(all="raise"):
        got = _direct_values(g, e, circle)
    if case == "near-overflow":
        want = _exact_circle_values(g, e, circle)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    else:
        assert not np.isfinite(got).all()


def test_verify_orbit_past_the_double_range_names_the_iterate(setting):
    # the direct route's own values at n = 300 leave the double range: the
    # outcome is NonFiniteCoefficient naming the iterate, with no warning
    ident, _ = setting
    targets = [TaylorSeries([1.0], "1"), TaylorSeries([0.0, 1.0], "z")]
    con = construct_orbit(OrbitProblem(ident, targets, epsilon=0.1))
    with np.errstate(all="raise"), pytest.raises(NonFiniteCoefficient) as exc:
        verify_orbit(dataclasses.replace(con, schedule=[5, 300]))
    assert str(exc.value) == "direct route at n = 300 leaves the double range"


def test_tampered_weights_are_detected(setting):
    # corrupting the coordinates of f must show up in the verification pass
    ident, _ = setting
    targets = [TaylorSeries([1.0], "1")]
    problem = OrbitProblem(ident, targets, epsilon=0.1)
    con = construct_orbit(problem)
    good = verify_orbit(con)[0]["eigen_error_full"]
    tampered = dataclasses.replace(con, coords=con.coords * 1.5)
    assert verify_orbit(tampered)[0]["eigen_error_full"] > 10 * max(
        good, 1e-3
    )


def test_readme_orbit_factors_no_stacked_matrix(tmp_path, monkeypatch):
    # the collocation matrix (160 x 32) is factored once, and each of the
    # steps 1 to 5 factors only its (2 * 32) x 32 core, never the
    # (2 * 160) x 32 stacked matrix
    shapes = []
    svd = weylcalc.eigen._svd

    def spy(a_mat):
        shapes.append(a_mat.shape)
        return svd(a_mat)

    monkeypatch.setattr(weylcalc.eigen, "_svd", spy)
    [argv] = [a for a in readme_cli_examples() if a[0] == "construct-orbit"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert shapes == [(160, 32)] + [(64, 32)] * 5


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


@pytest.mark.parametrize("l_coeffs", [None, [[0, 0], [1, 0], [1, 0]]],
                         ids=["T", "T+T^2"])
def test_ridge_0_orbits_of_1_and_z_are_met(tmp_path, l_coeffs):
    # the README instance and T + T^2 with targets 1 and z at --ridge 0.
    # Ridge 0 is on a knife edge (ROADMAP item 8): the truncated-SVD cutoff
    # is chosen on the collocation residual alone, and a change of the
    # member rows in their last bits once moved it to cutoff 0 and turned
    # both orbits to exit 1, which no test that runs at ridge 1e-10 sees
    operator = {"d": [[0, 0], [1, 0]], "a": [1, 0]}
    if l_coeffs is not None:
        operator["L"] = l_coeffs
    problem = json.dumps({
        "operator": operator,
        "targets": [{"coeffs": [[1, 0]]}, {"coeffs": [[0, 0], [1, 0]]}],
        "radius": 1.0,
        "epsilon": 0.1,
    })
    assert main(["construct-orbit", "--problem", problem, "--ridge", "0",
                 "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert doc["report"]["all_targets_met"] is True


def test_blocks_sum_to_the_coordinates(setting):
    # the block form sum_b w_b mu^(n - n_b) of A^n f is x mu^n
    ident, _ = setting
    targets = [TaylorSeries([1.0]), TaylorSeries([0.0, 1.0])]
    con = construct_orbit(OrbitProblem(ident, targets, epsilon=0.1))
    mu = con.eigenvalues
    blocks = con.blocks()
    assert [(j, n) for j, n, _ in blocks] == list(enumerate(con.schedule))
    for n in [0] + con.schedule:
        amp = sum(w * mu ** float(n - n_b) for _, n_b, w in blocks)
        assert np.allclose(amp, con.coords * mu ** float(n), rtol=1e-12, atol=0)


def test_quadratic_symbol_pipeline_honest(setting):
    # the paper-instance polynomial symbol completes with honest reports
    _, quad = setting
    targets = [TaylorSeries([1.0], "1"), TaylorSeries([0.0, 1.0], "z")]
    problem = OrbitProblem(quad, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    for row in con.report["per_target"]:
        assert np.isfinite(row["achieved_error"])
    assert len(con.schedule) == 2


def test_problem_validation(setting):
    ident, _ = setting
    with pytest.raises(ValueError):
        OrbitProblem(ident, [], epsilon=0.1)
    with pytest.raises(ValueError):
        OrbitProblem(ident, [TaylorSeries([1.0])], epsilon=-1.0)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            OrbitProblem(ident, [TaylorSeries([1.0])], epsilon=bad)
        with pytest.raises(ValueError):
            OrbitProblem(ident, [TaylorSeries([1.0])], radius=bad)
    for l in ([2.0], [0.0, 0.0]):
        const = CompositeOperator(WeylOperator(diff_op(1), 1.0), np.array(l))
        with pytest.raises(MalformedSpec, match="L must be non-constant"):
            OrbitProblem(EigenFamily(const), [TaylorSeries([1.0])])


@pytest.mark.parametrize("targets", [[[1.0], [0.0, 1.0]], [[0.0, 0.0, 1.0]],
                                     [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]]],
                         ids=["1,z", "z^2", "1,z,z^2"])
def test_orbit_of_t_is_that_of_l_t_equal_t(setting, targets):
    # A = T itself states the problem of L(T) = T, bit for bit
    ident, _ = setting
    series = [TaylorSeries(q) for q in targets]
    con_t = construct_orbit(OrbitProblem(EigenFamily(ident.t), series))
    con_l = construct_orbit(OrbitProblem(ident, series))
    assert con_t.problem.family.op is ident.t
    assert con_t.schedule == con_l.schedule
    for got, want in [
        (con_t.basis.lambdas.points, con_l.basis.lambdas.points),
        (con_t.coords, con_l.coords),
        (con_t.f.coeffs, con_l.f.coeffs),
        (con_t.eigenvalues, con_l.eigenvalues),
    ]:
        assert np.array_equal(_bits(got), _bits(want))
    assert verify_orbit(con_t) == verify_orbit(con_l)


def test_f_and_eigenvalues_are_worked_out_from_the_construction(setting):
    # f follows the coordinates it is built from, and cannot be set apart
    ident, _ = setting
    con = construct_orbit(OrbitProblem(ident, [TaylorSeries([0.0, 1.0])]))
    assert np.array_equal(
        con.eigenvalues, eigenvalue_of(ident.op, con.basis.lambdas.points)
    )
    half = dataclasses.replace(con, coords=con.coords / 2)
    want = linear_combine(
        [(x, TaylorSeries(row)) for x, row in zip(con.coords / 2, con.basis.rows)]
    )
    assert np.array_equal(_bits(half.f.coeffs), _bits(want.coeffs))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(con, f=TaylorSeries([1.0]))
    with pytest.raises(TypeError):
        weylcalc.orbit.OrbitConstruction(
            con.problem, con.schedule, con.basis, con.coords, con.report,
            con.eigenvalues,
        )


@pytest.mark.parametrize("field", ["radius", "epsilon"])
@pytest.mark.parametrize("value", [True, "1", None, 10**400],
                         ids=["true", "str", "none", "10**400"])
def test_problem_number_must_be_a_finite_positive_number(setting, field, value):
    # a bool is not a number, and an int past the double range is not finite
    ident, _ = setting
    with pytest.raises(MalformedSpec) as exc:
        OrbitProblem(ident, [TaylorSeries([1.0])], **{field: value})
    assert str(exc.value) == (
        f"{field!r}: expected a finite positive number, got {value!r}"
    )


def test_problem_numbers_are_stored_as_floats(setting):
    ident, _ = setting
    problem = OrbitProblem(ident, [TaylorSeries([1.0])],
                           radius=np.int64(2), epsilon=1)
    assert (problem.radius, problem.epsilon) == (2.0, 1.0)
    assert isinstance(problem.radius, float) and isinstance(problem.epsilon, float)
