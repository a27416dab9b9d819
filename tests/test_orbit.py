"""Orbit construction: lambda selection, the stacked fit, two-route checks."""

import dataclasses
import json
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylcalc.eigen
import weylcalc.orbit
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
    exact_power,
    from_gaussian,
    to_gaussian,
)
from weylcalc.orbit import (
    GUARD_BITS,
    SCHEDULE_CAP,
    SEARCH_RADIUS_CAP,
    OrbitProblem,
    construct_orbit,
    direct_power_values,
    select_expanding_lambdas,
    targets_met,
    verify_orbit,
)
from weylcalc.series import DiskSpec, evaluate_grid, linear_combine, make_series


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
    ident, quad = setting
    l_quad = np.array([0.0, 1.0, 1.0])
    c = {
        "ident": ident.op,
        "quad": quad.op,
        "complex_a": CompositeOperator(WeylOperator(diff_op(1), 0.6 - 0.8j), l_quad),
        "exponential": CompositeOperator(WeylOperator(diff_op(1), 0.0), l_quad),
    }[case]
    lams = select_expanding_lambdas(c, 24, margin=2.0)
    expected = _select_ray_by_ray(c, 24, 2.0)
    assert np.array_equal(lams.points.view(np.float64), expected.view(np.float64))


def test_exponential_family_symbol_composes():
    # a = 0, T = D: symbol of L(T) at e^{lambda z} is L(lambda)
    t = WeylOperator(diff_op(1), 0.0)
    c = CompositeOperator(t, np.array([0.0, 1.0, 1.0]))

    assert eigenvalue_of(c, 2.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# construction


def test_zero_target_yields_negligible_block(setting):
    ident, _ = setting
    problem = OrbitProblem(ident, [make_series(np.zeros(4))], epsilon=0.1)
    con = construct_orbit(problem)
    assert con.schedule == [1]
    assert np.abs(con.coords).max() <= 1e-8
    assert con.report["per_target"][0]["achieved_error"] <= 1e-8


def test_schedule_strictly_increasing(setting):
    ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0]),
               make_series([0.0, 0.0, 1.0])]
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
    problem = OrbitProblem(ident, [make_series([0.0, 1.0])])
    verify_orbit(construct_orbit(problem), problem)
    assert len(calls) == 16


def test_budget_exceeded_carries_diagnostics(setting):
    ident, _ = setting
    problem = OrbitProblem(ident, [make_series([1.0])], epsilon=1e-4)
    with pytest.raises(BudgetExceeded) as exc:
        construct_orbit(problem, lambda_count=4)
    assert exc.value.target_index == 0
    assert exc.value.residual > exc.value.budget


def test_schedule_overflow_raised(setting, monkeypatch):
    # measured: the schedule is [5, 10], so every cap below 10 overflows
    ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
    monkeypatch.setattr("weylcalc.orbit.SCHEDULE_CAP", 9)
    with pytest.raises(ScheduleOverflow) as info:
        construct_orbit(OrbitProblem(ident, targets, epsilon=0.1))
    assert info.value.attempted > info.value.cap == 9


def test_schedule_stays_within_double_range(setting):
    # |mu| = 51 at margin 50: the stacked system would leave the double
    # range long before SCHEDULE_CAP, so the search ends early and quietly
    ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
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
    pts = DiskSpec(1.0, 32).boundary()
    base = evaluate_grid(f, pts)
    g = f
    for n in range(1, 11):
        g = apply_composite(ident.op, g)
        assert np.abs(evaluate_grid(g, pts) - mu**n * base).max() <= 1e-6


def test_direct_power_route_matches_double_route_small_n(setting):
    # the exact route agrees with double-precision
    # apply_composite while rounding amplification is still negligible
    _, quad = setting
    f = linear_combine(
        [(0.4, eigenfunction(quad, 0.8)), (-0.2j, eigenfunction(quad, -0.5j))]
    )
    pts = DiskSpec(1.0, 16).boundary()
    g = f
    for n in range(1, 4):
        g = apply_composite(quad.op, g)
        direct = direct_power_values(quad.op, f, n, pts)
        assert np.abs(direct - evaluate_grid(g, pts)).max() <= 1e-10


def test_direct_power_route_is_exact_at_large_n(setting):
    # (T + T^2)^30 on the 24 coefficients of 1 + z/2, T = D - zI truncated
    # to them, in plain integers (2 f has integer coefficients), then the
    # values at the fourth roots of unity, each rounded once
    _, quad = setting
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
    got = direct_power_values(quad.op, f, 30, pts)
    assert np.array_equal(got, np.array(want))


def test_acceptance_instance_two_routes(setting):
    ident, _ = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    for row in con.report["per_target"]:
        assert row["achieved_error"] < 0.1
    rows = verify_orbit(con, problem)
    assert targets_met(rows, 0.1)
    assert rows[0]["method_discrepancy"] <= 1e-6
    for row in rows:
        assert row["eigen_error_full"] < 0.1
        assert row["method_discrepancy"] <= 0.1 / 10


def test_every_scheduled_iterate_has_a_direct_row(setting):
    # however late the iterate, both routes run, and success is decided on
    # their numbers alone
    ident, _ = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    rows = verify_orbit(dataclasses.replace(con, schedule=[41, 42]), problem)
    assert [row["n"] for row in rows] == [41, 42]
    for row in rows:
        assert isinstance(row["method_discrepancy"], float)
        assert math.isfinite(row["method_discrepancy"])
    assert not targets_met(rows, 0.1)
    worst = max(max(row["eigen_error_full"], row["method_discrepancy"]) for row in rows)
    assert targets_met(rows, 10 * worst)


def test_direct_route_past_the_double_range_names_the_iterate(setting):
    # A^5 multiplies coefficients near 1e300 by about 127^5: the rounded
    # direct values are infinite, an outcome rather than a discrepancy
    ident, _ = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, targets, epsilon=0.1)
    con = construct_orbit(problem)
    assert con.schedule == [5, 10]
    huge = dataclasses.replace(con, f=make_series(np.full(128, 1e300)))
    with pytest.raises(NonFiniteCoefficient) as exc:
        verify_orbit(huge, problem)
    assert str(exc.value) == "direct route at n = 5 leaves the double range"


# ---------------------------------------------------------------------------
# the direct route's two stages: every value is the fixed-point Horner's


def _horner_reference(g, e, pts):
    """sum_k g_k z^k / 2^e by the direct route's fixed-point Horner alone,
    on every point: a copy kept here as the reference for both stages."""
    (z_re, z_im), ez = to_gaussian(pts)
    acc_re = np.zeros(z_re.size, dtype=object)
    acc_im = np.zeros(z_re.size, dtype=object)
    for g_re, g_im in zip(g[0, ::-1], g[1, ::-1]):
        acc_re, acc_im = (
            ((acc_re * z_re - acc_im * z_im) >> ez) + (g_re << GUARD_BITS),
            ((acc_re * z_im + acc_im * z_re) >> ez) + (g_im << GUARD_BITS),
        )
    return from_gaussian(acc_re, acc_im, e + GUARD_BITS)


def _direct_values(g, e, pts):
    """direct_power_values where A^n f has the exact coefficients g / 2^e."""
    with mock.patch.object(weylcalc.orbit, "exact_power", lambda c, coeffs, n: (g, e)):
        return direct_power_values(None, make_series([0.0]), 0, pts)


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


def _gaussian_ints(rng, n_coeffs, e, magnitude, decay):
    """(2, n_coeffs) Python ints with |g_k| / 2^e about 2^(magnitude -
    decay k), random in every bit below that, a few of them zero."""
    g = np.zeros((2, n_coeffs), dtype=object)
    for k in range(n_coeffs):
        bits = e + magnitude - int(decay * k)
        for part in (0, 1):
            if bits >= 0 and rng.random() > 0.1:
                g[part, k] = rng.randrange(-(2**bits), 2**bits + 1)
    return g


def _points(rng, kind, radius):
    if kind == "circle":  # the verification circle
        return DiskSpec(radius, 128).boundary()
    if kind == "axis":
        scales = [radius * rng.random() for _ in range(8)] + [radius, 0.0, -0.0]
        return np.array([s * u for s in scales for u in (1, -1, 1j, -1j)])
    return np.array([complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
                     for _ in range(64)])


def _exact_values(g, e, pts):
    """The exact p(z) = sum_k g_k z^k / 2^e at each point as Fraction
    parts, by integer Horner on z = Z / 2^ez."""
    (z_re, z_im), ez = to_gaussian(pts)
    n_coeffs = g.shape[1]
    acc_re = np.zeros(z_re.size, dtype=object)
    acc_im = np.zeros(z_re.size, dtype=object)
    for k in range(n_coeffs - 1, -1, -1):
        shift = ez * (n_coeffs - 1 - k)
        acc_re, acc_im = (
            acc_re * z_re - acc_im * z_im + (g[0, k] << shift),
            acc_re * z_im + acc_im * z_re + (g[1, k] << shift),
        )
    den = 1 << (e + ez * (n_coeffs - 1))
    return [(Fraction(x, den), Fraction(y, den)) for x, y in zip(acc_re, acc_im)]


_COEFFICIENTS = dict(
    seed=st.integers(0, 2**32 - 1),
    n_coeffs=st.sampled_from([1, 2, 17, 128]),
    decay=st.floats(0.0, 8.0),
    radius=st.floats(0.5, 3.0),
    kind=st.sampled_from(["circle", "axis", "random"]),
)


@settings(max_examples=40, deadline=None)
@given(e=st.integers(0, 1200), magnitude=st.integers(-1100, 1030), **_COEFFICIENTS)
def test_direct_values_are_the_fixed_point_horners(seed, n_coeffs, e, magnitude,
                                                    decay, radius, kind):
    # from the subnormal range to past the double range, stage 1 decides
    # what it can and the fixed-point Horner the rest, bit for bit as the
    # Horner alone; the sign of a zero counts
    rng = random.Random(seed)
    g = _gaussian_ints(rng, n_coeffs, e, magnitude, decay)
    pts = _points(rng, kind, radius)
    want = _horner_reference(g, e, pts)
    assert np.array_equal(_bits(_direct_values(g, e, pts)), _bits(want))


@settings(max_examples=25, deadline=None)
@given(e=st.integers(0, 300), magnitude=st.integers(-60, 60), **_COEFFICIENTS)
def test_stage_one_is_within_its_bound(seed, n_coeffs, e, magnitude, decay, radius,
                                       kind):
    # |h + l - p(z)| <= beta in each part, against the exact value
    rng = random.Random(seed)
    g = _gaussian_ints(rng, n_coeffs, e, magnitude, decay)
    pts = _points(rng, kind, radius)
    (h, l), beta, delta = weylcalc.orbit._double_double_values(g, e, pts)
    assert np.all(delta >= 0)
    for j, exact in enumerate(_exact_values(g, e, pts)):
        for part in (0, 1):
            error = Fraction(h[part, j]) + Fraction(l[part, j]) - exact[part]
            assert abs(error) <= Fraction(beta[j])


@pytest.mark.parametrize("coeffs, e, z, want", [
    # 1 + 2^-53, half way between 1 and 1 + 2^-52: to even, 1
    ([2**53 + 1], 53, 0.5, 1.0),
    # 1 + 3 2^-53, half way up from 1 + 2^-52: to even, 1 + 2^-51
    ([2**53 + 3], 53, 0.5, 1.0 + 2.0**-51),
    # the tie as a sum, 1 + 2^-53 z at z = 1
    ([2**53, 1], 53, 1.0, 1.0),
    # 2^-106 above the tie: up, though stage 1 cannot tell
    ([2**106 + 2**53 + 1], 106, 0.5, 1.0 + 2.0**-52),
    # 2^-106 below the tie: down
    ([2**106 + 2**53 - 1], 106, 0.5, 1.0),
    # 1 + 3x is 2^-70 above the tie, and the Horner's floor of 3x 2^64
    # takes exactly that off: to even, 1, where 1 + 3x itself rounds up
    ([1, 3], 0, float((Fraction(1, 2**53) + Fraction(1, 2**70)) / 3), 1.0),
], ids=["constant", "constant-odd", "sum", "above", "below", "floored"])
@pytest.mark.parametrize("n_coeffs", [2, 17, 128])
def test_a_tie_is_left_to_the_fixed_point_horner(coeffs, e, z, want, n_coeffs):
    # the real part sits on a tie of the rounding or within 2^-70 of one;
    # the imaginary part, 1, is plainly decided
    g = np.zeros((2, n_coeffs), dtype=object)
    g[0, :len(coeffs)] = coeffs
    g[1, 0] = 1 << e
    pts = np.array([z])
    (h, l), beta, delta = weylcalc.orbit._double_double_values(g, e, pts)
    decided = weylcalc.orbit._decided(h, l, beta + delta)
    assert decided.tolist() == [[False], [True]]
    got = _direct_values(g, e, pts)
    assert np.array_equal(_bits(got), _bits(_horner_reference(g, e, pts)))
    assert np.array_equal(_bits(got), _bits([complex(want, 1.0)]))


@pytest.mark.parametrize("g_re, e, want", [
    (0, 10, 0.0),  # every coefficient zero: +0.0
    (-1, 1200, -0.0),  # -2^-1200 rounds to -0.0
    (1, 1074, 2.0**-1074),  # the least subnormal
], ids=["zero", "negative-zero", "subnormal"])
def test_values_that_are_not_normal_come_from_stage_two(g_re, e, want):
    g = np.zeros((2, 17), dtype=object)
    g[0, 0] = g_re
    pts = DiskSpec(1.0, 128).boundary()
    got = _direct_values(g, e, pts)
    assert np.array_equal(_bits(got), _bits(_horner_reference(g, e, pts)))
    assert np.array_equal(got.real.view(np.uint64), np.full(128, want).view(np.uint64))


@pytest.mark.parametrize("case", ["past-the-double-range", "near-overflow",
                                  "huge-points"])
def test_stage_one_steps_aside_without_a_warning(case):
    # coefficients or powers too large for stage 1: every point goes to
    # the fixed-point Horner, and nothing overflows on the way
    rng, e = random.Random(7), 10
    n_coeffs, magnitude, radius = {
        "past-the-double-range": (128, 1030, 1.0),
        "near-overflow": (2, 1000, 1.0),
        "huge-points": (128, 0, 1e10),
    }[case]
    g = _gaussian_ints(rng, n_coeffs, e, magnitude, 0.0)
    pts = DiskSpec(radius, 128).boundary()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert weylcalc.orbit._double_double_values(g, e, pts) is None
        got = _direct_values(g, e, pts)
    assert np.array_equal(_bits(got), _bits(_horner_reference(g, e, pts)))


def test_stage_one_underflows_without_a_warning():
    # coefficients near 2^-1000 on radius 3: products underflow inside
    # stage 1, which raises nothing and rounds no value wrongly
    rng = random.Random(11)
    g, e = _gaussian_ints(rng, 128, 1100, -1000, 0.5), 1100
    pts = DiskSpec(3.0, 128).boundary()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert weylcalc.orbit._double_double_values(g, e, pts) is not None
        got = _direct_values(g, e, pts)
    assert np.array_equal(_bits(got), _bits(_horner_reference(g, e, pts)))


def test_stage_one_decides_most_points_of_the_readme_instance(setting, monkeypatch):
    # at every scheduled iterate at most 10 % of the verification points
    # reach the fixed-point Horner, and the values are its own
    ident, _ = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(ident, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    pts = con.basis.verify_points
    assert pts.size == 128
    stage_two = weylcalc.orbit._fixed_point_values
    sizes = []

    def counted(g, e, some):
        sizes.append(some.size)
        return stage_two(g, e, some)

    monkeypatch.setattr(weylcalc.orbit, "_fixed_point_values", counted)
    for n in con.schedule:
        sizes.clear()
        got = direct_power_values(ident.op, con.f, n, pts)
        assert sum(sizes) <= 0.1 * pts.size
        want = _horner_reference(*exact_power(ident.op, con.f.coeffs, n), pts)
        assert np.array_equal(_bits(got), _bits(want))


def test_tampered_weights_are_detected(setting):
    # corrupting the coordinates of f must show up in the verification pass
    ident, _ = setting
    targets = [make_series([1.0], "1")]
    problem = OrbitProblem(ident, targets, epsilon=0.1)
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
    ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
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
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
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
        OrbitProblem(ident, [make_series([1.0])], epsilon=-1.0)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            OrbitProblem(ident, [make_series([1.0])], epsilon=bad)
        with pytest.raises(ValueError):
            OrbitProblem(ident, [make_series([1.0])], radius=bad)
    const = CompositeOperator(
        WeylOperator(diff_op(1), 1.0), np.array([2.0])
    )
    with pytest.raises(ValueError):
        OrbitProblem(EigenFamily(const), [make_series([1.0])])


@pytest.mark.parametrize("field", ["radius", "epsilon"])
@pytest.mark.parametrize("value", [True, "1", None, 10**400],
                         ids=["true", "str", "none", "10**400"])
def test_problem_number_must_be_a_finite_positive_number(setting, field, value):
    # a bool is not a number, and an int past the double range is not finite
    ident, _ = setting
    with pytest.raises(MalformedSpec) as exc:
        OrbitProblem(ident, [make_series([1.0])], **{field: value})
    assert str(exc.value) == (
        f"{field!r}: expected a finite positive number, got {value!r}"
    )


def test_problem_numbers_are_stored_as_floats(setting):
    ident, _ = setting
    problem = OrbitProblem(ident, [make_series([1.0])],
                           radius=np.int64(2), epsilon=1)
    assert (problem.radius, problem.epsilon) == (2.0, 1.0)
    assert isinstance(problem.radius, float) and isinstance(problem.epsilon, float)
