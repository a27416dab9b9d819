"""Translate eigenfunctions and completeness fits."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylcalc.eigen import (
    _member_coeffs,
    VERIFY_POINTS,
    CompletenessBasis,
    EigenFamily,
    LambdaSet,
    collocation_points,
    completeness_bases,
    completeness_fit,
    composite_eigencheck,
    eigen_residual,
    eigenfunction,
    eigenvalue_of,
    inverse_integer_lambdas,
    random_disk_lambdas,
    segment_lambdas,
)
import weylcalc.eigen
from weylcalc.accel import eval_grid
from weylcalc.errors import KernelResidualTooLarge, NonFiniteCoefficient
from weylcalc.operators import (
    CompositeOperator,
    ConvolutionOperator,
    WeylOperator,
    apply_composite,
    apply_weyl,
    diff_op,
)
from weylcalc.orbit import (
    LAMBDA_COUNT_DEFAULT,
    MARGIN_DEFAULT,
    select_expanding_lambdas,
)
from weylcalc.series import (
    UNIT_DISK,
    DiskSpec,
    disk_sup_norm,
    evaluate_grid,
    exponential_rows,
    gaussian_series,
    linear_combine,
    make_series,
    translate,
)


@pytest.fixture(scope="module")
def gaussian_family():
    t = WeylOperator(diff_op(1), 1.0)
    return t, EigenFamily(t)


#: the a = 0 family of D
_EXPONENTIAL = EigenFamily(WeylOperator(diff_op(1), 0.0))


def _member(family, lam):
    """f_lambda built on its own, by the one-lambda translate or the
    exponential recurrence, not by the batched builder."""
    if family.kind == "translate":
        return translate(family.f0, lam)
    return make_series(exponential_rows([lam], family.n_terms)[0])


# ---------------------------------------------------------------------------
# families and eigen-relations


def test_family_rejects_non_kernel_generator():
    # the recurrence's f0 for D - 60 zI rounds to a residual of 1.5e-2 (a
    # short truncation is no such case: the truncated T f0 vanishes exactly)
    with pytest.raises(KernelResidualTooLarge, match="generator kernel residual"):
        EigenFamily(WeylOperator(diff_op(1), 60.0))


@pytest.mark.parametrize("lams", [
    inverse_integer_lambdas(40).points,
    segment_lambdas(40).points,
    select_expanding_lambdas(
        CompositeOperator(WeylOperator(diff_op(1), 1.0), np.array([0.0, 1.0])),
        2 * LAMBDA_COUNT_DEFAULT, MARGIN_DEFAULT).points,
], ids=["inverse", "segment", "orbit"])
def test_family_of_d_minus_z_is_the_closed_form_gaussian(lams):
    # f0 is worked out from T, and its rows are those of exp(z^2/2) shifted
    family = EigenFamily(WeylOperator(diff_op(1), 1.0))
    assert family.kind == "translate"
    rows = _member_coeffs(family, lams)
    for row, lam in zip(rows, lams):
        want = translate(gaussian_series(128), lam).coeffs
        assert np.array_equal(_raw(row), _raw(want))
        assert np.array_equal(_raw(eigenfunction(family, lam).coeffs), _raw(want))


def test_family_kind_follows_from_a():
    conv = WeylOperator(ConvolutionOperator([0.3, -1.0, 0.5j]), 0.0)
    for op in (conv, CompositeOperator(conv, np.array([0.5, 1.0]))):
        family = EigenFamily(op, 16)
        assert (family.kind, family.f0) == ("exponential", None)
        assert family.op is op and family.t is conv


def test_translate_eigen_relation_grid(gaussian_family):
    # T f_lambda = a lambda f_lambda over a 5x5 grid with |lambda| <= 2
    _, family = gaussian_family
    axis = np.linspace(-2 / np.sqrt(2), 2 / np.sqrt(2), 5)
    worst = 0.0
    for x in axis:
        for y in axis:
            worst = max(worst, eigen_residual(family, complex(x, y)))
    assert worst <= 1e-6


def test_composite_eigen_relation_grid(gaussian_family):
    # L(T) f_lambda = L(a lambda) f_lambda with L(l) = l^2 + l
    t, _ = gaussian_family
    family = EigenFamily(CompositeOperator(t, np.array([0.0, 1.0, 1.0])))
    axis = np.linspace(-2 / np.sqrt(2), 2 / np.sqrt(2), 5)
    worst = 0.0
    for x in axis:
        for y in axis:
            worst = max(worst, composite_eigencheck(family, complex(x, y)))
    assert worst <= 1e-5


def test_exponential_family_for_convolution_operator():
    # a = 0: D e^{lambda z} = lambda e^{lambda z}, eigenvalue L(lambda)
    t = WeylOperator(diff_op(1), 0.0)
    family = EigenFamily(t, 96)
    for lam in (0.5, -0.3 + 0.7j):
        assert eigenvalue_of(t, lam) == pytest.approx(lam)
        assert eigen_residual(family, lam) <= 1e-8


def test_eigenvalue_of_translate_family(gaussian_family):
    t, _ = gaussian_family
    assert eigenvalue_of(t, 1.5j) == pytest.approx(1.5j)


def _bits(a):
    return np.ascontiguousarray(a).view(np.float64)


def _raw(a):
    # the sign of a zero counts
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("kind", ["translate", "exponential"])
def test_eigenvalue_of_an_array_equals_each_lambda(kind):
    # a genuinely complex a: numpy's array multiply may round a complex
    # product differently from a scalar one
    t = WeylOperator(diff_op(1) if kind == "translate" else diff_op(2),
                     0.6 - 0.8j if kind == "translate" else 0.0)
    rng = np.random.default_rng(3)
    lams = 4 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    for op in (t, CompositeOperator(t, np.array([0.0, 1.0, 0.5 + 0.25j]))):
        batch = eigenvalue_of(op, lams)
        each = np.array([eigenvalue_of(op, complex(lam)) for lam in lams])
        assert np.array_equal(_bits(batch), _bits(each))


def _relation_settings():
    """(family, check, apply) for every kind of eigen-relation check; the
    check acts by the family's operator."""
    t1 = WeylOperator(diff_op(1), 1.0)
    conv = WeylOperator(ConvolutionOperator([0.3, -1.0, 0.5j]), 0.0)
    return {
        "D - zI": (EigenFamily(t1), eigen_residual, apply_weyl),
        "D^2 + izI": (EigenFamily(WeylOperator(diff_op(2), -1j)),
                      eigen_residual, apply_weyl),
        "L = T + T^2": (EigenFamily(CompositeOperator(t1, np.array([0.0, 1.0, 1.0]))),
                        composite_eigencheck, apply_composite),
        "exponential": (EigenFamily(conv, 96), eigen_residual, apply_weyl),
        "exponential, L(T)": (
            EigenFamily(CompositeOperator(conv, np.array([0.5, 1.0, 1.0j])), 96),
            composite_eigencheck, apply_composite),
    }


@pytest.mark.parametrize("case", sorted(_relation_settings()))
def test_eigen_checks_on_an_array_equal_each_lambda(case):
    # the batch holds the bits of the residual built per lambda from the
    # public pieces, lambda = 0 (f0 itself) included
    family, check, apply = _relation_settings()[case]
    op = family.op
    axis = np.linspace(-2 / np.sqrt(2), 2 / np.sqrt(2), 7)
    lams = np.append((axis[None, :] + 1j * axis[:, None]).ravel(), 0.0)
    each = []
    for lam in lams:
        f_lam = _member(family, lam)
        mu = eigenvalue_of(op, lam)
        each.append(disk_sup_norm(
            linear_combine([(1.0, apply(op, f_lam)), (-mu, f_lam)])))
    batch = check(family, lams)
    assert batch.shape == lams.shape
    assert np.array_equal(batch, np.array(each))
    single = check(family, lams[3])
    assert type(single) is float
    assert single == each[3]


coeff_lists = st.integers(1, 160).flatmap(
    lambda n: st.lists(
        st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )
)
shift_lists = st.lists(
    st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, shift_lists)
def test_translate_rows_equal_per_lambda_translate(coeffs, lams):
    # the lambda = 0 row is f0 itself, as translate returns it; the builder
    # reads only the kind and f0 of a family, so any f0 stands in here
    f0 = make_series(coeffs)
    lams = np.array(lams + [0.0], dtype=np.complex128)
    rows = _member_coeffs(SimpleNamespace(kind="translate", f0=f0), lams)
    assert rows.shape == (lams.size, len(coeffs))
    for row, lam in zip(rows, lams):
        assert np.array_equal(_bits(row), _bits(translate(f0, lam).coeffs))


# ---------------------------------------------------------------------------
# lambda presets


def test_presets_are_distinct_and_deterministic():
    inv = inverse_integer_lambdas(10)
    assert len(inv) == 10
    assert np.allclose(sorted(inv.points.real, reverse=True)[:2], [1.0, 0.5])
    seg = segment_lambdas(8)
    assert np.unique(seg.points).size == 8
    r1 = random_disk_lambdas(12, seed=3)
    r2 = random_disk_lambdas(12, seed=3)
    assert np.array_equal(r1.points, r2.points)
    assert np.abs(r1.points).max() < 1.0


def test_lambda_set_rejects_duplicates():
    with pytest.raises(ValueError):
        LambdaSet(np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# completeness fitting


def test_fit_reproduces_span_member(gaussian_family):
    # a target already in the span is fitted to near machine accuracy
    _, family = gaussian_family
    lams = LambdaSet(np.array([0.3, -0.2 + 0.1j, 0.5j]))
    target = eigenfunction(family, 0.3)
    fit = completeness_fit(completeness_bases(family, [lams])[0], target)
    assert fit.residual_norm <= 1e-9
    assert abs(fit.weights[0] - 1.0) <= 1e-6
    assert np.abs(fit.weights[1:]).max() <= 1e-6


def test_fit_residual_curve_non_increasing(gaussian_family):
    # richer lambda sets can only help (truncated-SVD path, ridge = 0)
    _, family = gaussian_family
    for target in (make_series([1.0], "1"), make_series([0.0, 1.0], "z")):
        residuals = []
        for count in (5, 10, 20, 40):
            fit = completeness_fit(
                completeness_bases(family, [inverse_integer_lambdas(count)])[0],
                target,
                ridge=0.0,
            )
            residuals.append(fit.residual_norm)
        assert all(
            later <= earlier * (1 + 1e-9)
            for earlier, later in zip(residuals, residuals[1:])
        )
        assert residuals[-1] <= residuals[0] / 10


def test_fit_scaling_equivariance(gaussian_family):
    # at a fixed ridge the solution is linear in the target
    _, family = gaussian_family
    lams = inverse_integer_lambdas(10)
    target = make_series([0.0, 1.0], "z")
    s = 2.5 - 1.0j
    scaled = make_series(np.array([0.0, 1.0]) * s, "s*z")
    [basis] = completeness_bases(family, [lams])
    f1 = completeness_fit(basis, target, ridge=1e-10)
    f2 = completeness_fit(basis, scaled, ridge=1e-10)
    assert np.abs(f2.weights - s * f1.weights).max() <= 1e-8 * np.abs(
        f1.weights
    ).max()
    assert f2.residual_norm == pytest.approx(abs(s) * f1.residual_norm, rel=1e-6)


def test_fit_report_residual_is_true_sup_norm(gaussian_family):
    # the reported residual must match an independent evaluation of the
    # fitted combination on the verification circle
    _, family = gaussian_family
    lams = inverse_integer_lambdas(10)
    target = make_series([1.0], "1")
    fit = completeness_fit(completeness_bases(family, [lams])[0], target)
    pts = DiskSpec(1.0, 128).boundary()
    fitted = sum(
        w * evaluate_grid(_member(family, lam), pts)
        for w, lam in zip(fit.weights, lams.points)
    )
    resid = np.abs(fitted - evaluate_grid(target, pts)).max()
    assert resid == pytest.approx(fit.residual_norm, rel=1e-9)


def test_fit_condition_diagnostic_positive(gaussian_family):
    _, family = gaussian_family
    fit = completeness_fit(
        completeness_bases(family, [inverse_integer_lambdas(10)])[0],
        make_series([1.0]),
    )
    assert fit.condition_diag >= 1.0


def _basis_alone(family, lams, disk=UNIT_DISK):
    """Basis of one lambda set built column by column, sharing nothing."""
    members = [_member(family, lam) for lam in lams.points]
    pts = collocation_points(disk)
    verify_pts = DiskSpec(disk.radius, VERIFY_POINTS).boundary()
    a_mat = np.column_stack([evaluate_grid(s, pts) for s in members])
    return CompletenessBasis(
        lambdas=lams,
        rows=np.array([s.coeffs for s in members]),
        points=pts,
        collocation=a_mat,
        verify_points=verify_pts,
        verification=np.column_stack([evaluate_grid(s, verify_pts) for s in members]),
        svd=np.linalg.svd(a_mat, full_matrices=False),
    )


@pytest.mark.parametrize("ridge", [0.0, 1e-10])
@pytest.mark.parametrize(
    "kind, preset",
    [
        ("translate", inverse_integer_lambdas),  # nested sets
        ("translate", segment_lambdas),  # j/5 == 8j/40: shared points
        ("exponential", inverse_integer_lambdas),  # a = 0
    ],
)
def test_fit_on_shared_basis_equals_fit_on_own_basis(
    gaussian_family, kind, preset, ridge
):
    # a basis built from several lambda sets gives the same bits as one
    # built for its set alone; the duplicated count 5 gets its own basis
    family = gaussian_family[1] if kind == "translate" else _EXPONENTIAL
    sets = [preset(count) for count in (5, 10, 20, 40, 5)]
    bases = completeness_bases(family, sets)
    assert len(bases) == len(sets)
    assert len({row.tobytes() for basis in bases for row in basis.rows}) == 40
    targets = [make_series([0.0, 0.0, 1.0]), make_series([0.5, 0.0, 0.0, 1.0])]
    for lams, shared in zip(sets, bases):
        alone = _basis_alone(family, lams)
        for name in ("rows", "collocation", "verification"):
            assert not getattr(shared, name).flags.writeable
            assert np.array_equal(_raw(getattr(shared, name)), _raw(getattr(alone, name)))
        for target in targets:
            fit_shared = completeness_fit(shared, target, ridge)
            fit_alone = completeness_fit(alone, target, ridge)
            assert (fit_shared.weights == fit_alone.weights).all()
            assert fit_shared.residual_norm == fit_alone.residual_norm
            assert fit_shared.condition_diag == fit_alone.condition_diag
            assert fit_shared.ridge == fit_alone.ridge


@pytest.mark.parametrize("kind", ["translate", "exponential"])
def test_bases_equal_evaluation_on_each_grid(gaussian_family, kind):
    # the boundary circle is every other point of the verification circle,
    # and each point is evaluated once; each matrix still holds the bits
    # of an evaluation on its own grid
    family = gaussian_family[1] if kind == "translate" else _EXPONENTIAL
    sets = [inverse_integer_lambdas(5), random_disk_lambdas(7, seed=2)]
    for basis in completeness_bases(family, sets, DiskSpec(1.5, 64)):
        for values, pts in ((basis.collocation, basis.points),
                            (basis.verification, basis.verify_points)):
            assert np.array_equal(_raw(values), _raw(eval_grid(basis.rows, pts)))


def test_bases_never_merge_points_of_different_bits(gaussian_family, monkeypatch):
    # +0.0 and -0.0 in either part are one value but four points: a member
    # with a -0.0 constant term has values of different bits there
    rows = np.array([[complex(-0.0, -0.0), -1.0, 0.5], [1.0, 2.0, 3.0]])
    zeros = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
    monkeypatch.setattr(weylcalc.eigen, "collocation_points",
                        lambda disk: np.concatenate([zeros, disk.boundary()]))
    monkeypatch.setattr(weylcalc.eigen, "_member_coeffs", lambda family, lams: rows)
    [basis] = completeness_bases(gaussian_family[1], [LambdaSet([1.0, 2.0])])
    expected = eval_grid(rows, basis.points)
    assert len({v.tobytes() for v in expected[:4, 0]}) > 1
    assert np.array_equal(_raw(basis.collocation), _raw(expected))


def test_bases_name_the_lambda_of_a_member_past_the_double_range():
    # the CLI turns numpy's warnings off, as here
    with np.errstate(all="ignore"), pytest.raises(NonFiniteCoefficient) as exc:
        completeness_bases(_EXPONENTIAL, [LambdaSet([0.5, 1e300])])
    assert str(exc.value) == (
        "eigenfunction coefficients at |lambda| up to 1e+300 leave the double range"
    )
