"""Translate eigenfunctions and completeness fits."""

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
    exponential_family,
    family_from_kernel,
    inverse_integer_lambdas,
    random_disk_lambdas,
    segment_lambdas,
)
from weylcalc.errors import KernelResidualTooLarge
from weylcalc.operators import CompositeOperator, WeylOperator, diff_op
from weylcalc.series import (
    UNIT_DISK,
    DiskSpec,
    evaluate_grid,
    gaussian_series,
    make_series,
    translate,
)


@pytest.fixture(scope="module")
def gaussian_family():
    t = WeylOperator(diff_op(1), 1.0)
    return t, family_from_kernel(t, gaussian_series(128))


# ---------------------------------------------------------------------------
# families and eigen-relations


def test_family_rejects_non_kernel_generator():
    t = WeylOperator(diff_op(1), 1.0)
    with pytest.raises(KernelResidualTooLarge):
        family_from_kernel(t, make_series([1.0] * 64))


def test_translate_eigen_relation_grid(gaussian_family):
    # T f_lambda = a lambda f_lambda over a 5x5 grid with |lambda| <= 2
    t, family = gaussian_family
    axis = np.linspace(-2 / np.sqrt(2), 2 / np.sqrt(2), 5)
    worst = 0.0
    for x in axis:
        for y in axis:
            worst = max(worst, eigen_residual(t, family, complex(x, y)))
    assert worst <= 1e-6


def test_composite_eigen_relation_grid(gaussian_family):
    # L(T) f_lambda = L(a lambda) f_lambda with L(l) = l^2 + l
    t, family = gaussian_family
    c = CompositeOperator(t, np.array([0.0, 1.0, 1.0]))
    axis = np.linspace(-2 / np.sqrt(2), 2 / np.sqrt(2), 5)
    worst = 0.0
    for x in axis:
        for y in axis:
            worst = max(worst, composite_eigencheck(c, family, complex(x, y)))
    assert worst <= 1e-5


def test_exponential_family_for_convolution_operator():
    # a = 0: D e^{lambda z} = lambda e^{lambda z}, eigenvalue L(lambda)
    t = WeylOperator(diff_op(1), 0.0)
    family = exponential_family(96)
    for lam in (0.5, -0.3 + 0.7j):
        assert eigenvalue_of(t, family, lam) == pytest.approx(lam)
        assert eigen_residual(t, family, lam) <= 1e-8


def test_eigenvalue_of_translate_family(gaussian_family):
    t, family = gaussian_family
    assert eigenvalue_of(t, family, 1.5j) == pytest.approx(1.5j)


def _bits(a):
    return np.ascontiguousarray(a).view(np.float64)


@pytest.mark.parametrize("kind", ["translate", "exponential"])
def test_eigenvalue_of_an_array_equals_each_lambda(kind):
    # a genuinely complex a: numpy's array multiply may round a complex
    # product differently from a scalar one
    t = WeylOperator(diff_op(1) if kind == "translate" else diff_op(2),
                     0.6 - 0.8j if kind == "translate" else 0.0)
    family = (EigenFamily(f0=gaussian_series(8)) if kind == "translate"
              else exponential_family(16))
    rng = np.random.default_rng(3)
    lams = 4 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    for op in (t, CompositeOperator(t, np.array([0.0, 1.0, 0.5 + 0.25j]))):
        batch = eigenvalue_of(op, family, lams)
        each = np.array([eigenvalue_of(op, family, complex(lam)) for lam in lams])
        assert np.array_equal(_bits(batch), _bits(each))


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
    # the lambda = 0 row is f0 itself, as translate returns it
    f0 = make_series(coeffs)
    lams = np.array(lams + [0.0], dtype=np.complex128)
    rows = _member_coeffs(EigenFamily(f0=f0), lams)
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
        w * evaluate_grid(eigenfunction(family, lam), pts)
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
    members = [eigenfunction(family, lam) for lam in lams.points]
    pts = collocation_points(disk)
    verify_pts = DiskSpec(disk.radius, VERIFY_POINTS).boundary()
    a_mat = np.column_stack([evaluate_grid(s, pts) for s in members])
    return CompletenessBasis(
        lambdas=lams,
        members=members,
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
    family = gaussian_family[1] if kind == "translate" else exponential_family()
    sets = [preset(count) for count in (5, 10, 20, 40, 5)]
    bases = completeness_bases(family, sets)
    assert len(bases) == len(sets)
    assert len({id(m) for basis in bases for m in basis.members}) == 40
    targets = [make_series([0.0, 0.0, 1.0]), make_series([0.5, 0.0, 0.0, 1.0])]
    for lams, shared in zip(sets, bases):
        alone = _basis_alone(family, lams)
        for target in targets:
            fit_shared = completeness_fit(shared, target, ridge)
            fit_alone = completeness_fit(alone, target, ridge)
            assert (fit_shared.weights == fit_alone.weights).all()
            assert fit_shared.residual_norm == fit_alone.residual_norm
            assert fit_shared.condition_diag == fit_alone.condition_diag
            assert fit_shared.ridge == fit_alone.ridge
