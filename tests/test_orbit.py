"""Orbit construction: lambda selection, scheduling, leakage, two-route checks."""

import numpy as np
import pytest

import weylcalc.eigen
from weylcalc.eigen import eigenfunction, eigenvalue_of, family_from_kernel
from weylcalc.errors import BudgetExceeded, ScheduleOverflow, SearchExhausted
from weylcalc.operators import (
    CompositeOperator,
    ConvolutionOperator,
    WeylOperator,
    apply_composite,
    diff_op,
)
from weylcalc.orbit import (
    OrbitProblem,
    construct_orbit,
    direct_power_values,
    select_expanding_lambdas,
    verify_orbit,
)
from weylcalc.series import (
    DiskSpec,
    evaluate_grid,
    gaussian_series,
    linear_combine,
    make_series,
    zero_series,
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


def test_search_exhausted_with_tiny_radius_cap(setting):
    _, family, ident, _ = setting
    with pytest.raises(SearchExhausted):
        select_expanding_lambdas(
            ident, 4, margin=0.5, family=family, radius_cap=0.01
        )


def test_exponential_family_symbol_composes():
    # a = 0, T = D: symbol of L(T) at e^{lambda z} is L(lambda)
    t = WeylOperator(diff_op(1), 0.0)
    c = CompositeOperator(t, np.array([0.0, 1.0, 1.0]))
    from weylcalc.eigen import exponential_family

    assert eigenvalue_of(c, exponential_family(64), 2.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# construction


def test_zero_target_yields_negligible_block(setting):
    _, family, ident, _ = setting
    problem = OrbitProblem(ident, family, [zero_series(4)], epsilon=0.1)
    con = construct_orbit(problem)
    assert con.schedule == [1]
    assert np.abs(con.blocks[0].weights).max() <= 1e-8
    assert con.report["per_target"][0]["achieved_error"] <= 1e-8


def test_schedule_strictly_increasing(setting):
    _, family, ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0]),
               make_series([0.0, 0.0, 1.0])]
    con = construct_orbit(OrbitProblem(ident, family, targets, epsilon=0.1))
    assert all(a < b for a, b in zip(con.schedule, con.schedule[1:]))


def test_leakage_measured_within_bound(setting):
    _, family, ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
    con = construct_orbit(OrbitProblem(ident, family, targets, epsilon=0.1))
    for row in con.report["leakage"]:
        assert row["measured"] <= row["bound"] + 1e-8


def test_construct_orbit_translates_each_lambda_once(setting, monkeypatch):
    # one basis serves the fit, the member values and f: 16 translates,
    # not 16 for the members plus 16 for the fit
    _, family, ident, _ = setting
    calls = []
    translate = weylcalc.eigen.translate

    def counted(f, lam):
        calls.append(lam)
        return translate(f, lam)

    monkeypatch.setattr(weylcalc.eigen, "translate", counted)
    construct_orbit(OrbitProblem(ident, family, [make_series([0.0, 1.0])]))
    assert len(calls) == 16


def test_budget_exceeded_carries_diagnostics(setting):
    _, family, ident, _ = setting
    problem = OrbitProblem(ident, family, [make_series([1.0])], epsilon=1e-4)
    with pytest.raises(BudgetExceeded) as exc:
        construct_orbit(problem, lambda_count=4)
    assert exc.value.target_index == 0
    assert exc.value.residual > exc.value.budget


def test_schedule_overflow_raised(setting):
    _, family, ident, _ = setting
    targets = [make_series([1.0]), make_series([0.0, 1.0])]
    with pytest.raises(ScheduleOverflow):
        construct_orbit(
            OrbitProblem(ident, family, targets, epsilon=0.1), schedule_cap=10
        )


def test_margin_lost_in_one_plus_margin_is_rejected(setting):
    _, family, ident, _ = setting
    with pytest.raises(ValueError, match="1 \\+ margin must exceed 1"):
        select_expanding_lambdas(ident, 4, margin=1e-300, family=family)


def test_overflowing_schedule_gap_is_a_schedule_overflow(setting):
    # gap_factor * log(ratio) / log(1 + margin) overflows a double
    _, family, ident, _ = setting
    problem = OrbitProblem(ident, family, [make_series([1.0])], epsilon=0.1)
    with pytest.raises(ScheduleOverflow) as info:
        construct_orbit(problem, margin=1e-10, gap_factor=1e300)
    assert info.value.attempted > info.value.cap


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
    assert con.report["all_targets_met"]
    for row in con.report["per_target"]:
        assert row["achieved_error"] < 0.1
    rows = verify_orbit(con, problem)
    assert rows[0]["method_discrepancy"] <= 1e-6
    assert rows[0]["eigen_error_partial"] < 0.1


def test_tampered_weights_are_detected(setting):
    # corrupting a block weight must show up in the verification pass
    _, family, ident, _ = setting
    targets = [make_series([1.0], "1")]
    problem = OrbitProblem(ident, family, targets, epsilon=0.1)
    con = construct_orbit(problem)
    good = verify_orbit(con, problem)[0]["eigen_error_full"]
    bad_blocks = [
        type(con.blocks[0])(
            target_index=0,
            n=con.blocks[0].n,
            weights=con.blocks[0].weights * 1.5,
        )
    ]
    tampered = type(con)(
        f=con.f,
        schedule=con.schedule,
        lambdas=con.lambdas,
        eigenvalues=con.eigenvalues,
        blocks=bad_blocks,
        report=con.report,
        family=con.family,
    )
    assert verify_orbit(tampered, problem)[0]["eigen_error_full"] > 10 * max(
        good, 1e-3
    )


def test_quadratic_symbol_pipeline_honest(setting):
    # the paper-instance polynomial symbol completes with honest reports
    _, family, _, quad = setting
    targets = [make_series([1.0], "1"), make_series([0.0, 1.0], "z")]
    problem = OrbitProblem(quad, family, targets, radius=1.0, epsilon=0.1)
    con = construct_orbit(problem)
    for row in con.report["per_target"]:
        assert row["achieved_error"] == pytest.approx(
            row["achieved_error"]
        )  # finite
        assert isinstance(row["success"], bool)
    assert len(con.schedule) == 2


def test_problem_validation(setting):
    _, family, ident, _ = setting
    with pytest.raises(ValueError):
        OrbitProblem(ident, family, [], epsilon=0.1)
    with pytest.raises(ValueError):
        OrbitProblem(ident, family, [make_series([1.0])], epsilon=-1.0)
    const = CompositeOperator(
        WeylOperator(diff_op(1), 1.0), np.array([2.0])
    )
    with pytest.raises(ValueError):
        OrbitProblem(const, family, [make_series([1.0])])
