"""Translate eigenfunctions and completeness fits."""

import functools
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
    collocation_circles,
    completeness_bases,
    completeness_fit,
    composite_eigencheck,
    eigen_residual,
    eigenfunction,
    eigenvalue_of,
    inverse_integer_lambdas,
    random_disk_lambdas,
    regularized_solve,
    segment_lambdas,
)
import weylcalc.eigen
from weylcalc.errors import KernelResidualTooLarge, NonFiniteCoefficient, SingularSystem
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


def _fit(basis, target, ridge=weylcalc.eigen.RIDGE_DEFAULT):
    """The outcome of completeness_fit of a target series on the basis's
    circles, fitted as a one-row stack."""
    values = evaluate_grid(target.coeffs[None], basis.circles)
    [fit] = completeness_fit(basis, values, ridge)
    return fit


def _grid(half, count):
    """The count x count square grid of lambdas in [-half, half]^2, row by row."""
    axis = np.linspace(-half, half, count)
    return (axis[None, :] + 1j * axis[:, None]).ravel()


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
    assert eigen_residual(family, _grid(2 / np.sqrt(2), 5)).max() <= 1e-6


def test_composite_eigen_relation_grid(gaussian_family):
    # L(T) f_lambda = L(a lambda) f_lambda with L(l) = l^2 + l
    t, _ = gaussian_family
    family = EigenFamily(CompositeOperator(t, np.array([0.0, 1.0, 1.0])))
    assert composite_eigencheck(family, _grid(2 / np.sqrt(2), 5)).max() <= 1e-5


def test_exponential_family_for_convolution_operator():
    # a = 0: D e^{lambda z} = lambda e^{lambda z}, eigenvalue L(lambda)
    t = WeylOperator(diff_op(1), 0.0)
    family = EigenFamily(t, 96)
    lams = np.array([0.5, -0.3 + 0.7j])
    assert eigenvalue_of(t, lams) == pytest.approx(lams)
    assert (eigen_residual(family, lams) <= 1e-8).all()


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
    lams = np.append(_grid(2 / np.sqrt(2), 7), 0.0)
    each = []
    for lam in lams:
        f_lam = _member(family, lam)
        mu = eigenvalue_of(op, lam)
        each.append(disk_sup_norm(
            linear_combine([(1.0, apply(op, f_lam)), (-mu, f_lam)])))
    batch = check(family, lams)
    assert batch.shape == lams.shape
    assert np.array_equal(batch, np.array(each))
    assert np.array_equal(check(family, lams[3:4]), [each[3]])


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
    fit = _fit(completeness_bases(family, [lams])[0], target)
    assert fit.residual_norm <= 1e-9
    assert abs(fit.weights[0] - 1.0) <= 1e-6
    assert np.abs(fit.weights[1:]).max() <= 1e-6


def test_fit_residual_curve_non_increasing(gaussian_family):
    # richer lambda sets can only help (truncated-SVD path, ridge = 0)
    _, family = gaussian_family
    for target in (make_series([1.0], "1"), make_series([0.0, 1.0], "z")):
        residuals = []
        for count in (5, 10, 20, 40):
            fit = _fit(
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
    f1 = _fit(basis, target, ridge=1e-10)
    f2 = _fit(basis, scaled, ridge=1e-10)
    assert np.abs(f2.weights - s * f1.weights).max() <= 1e-8 * np.abs(
        f1.weights
    ).max()
    assert f2.residual_norm == pytest.approx(abs(s) * f1.residual_norm, rel=1e-6)


@functools.cache
def _scaling_bases() -> list:
    """Bases of D - zI on the inverse sets of 5 to 40 points and a
    random set of 20."""
    sets = [inverse_integer_lambdas(count) for count in (5, 10, 20, 40)]
    family = EigenFamily(WeylOperator(diff_op(1), 1.0))
    return completeness_bases(family, sets + [random_disk_lambdas(20)])


def _ldexp(z: np.ndarray, k: int) -> np.ndarray:
    """2^k z, exactly while it stays in the double range."""
    return np.ldexp(z.view(np.float64), k).view(np.complex128)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    index=st.integers(0, 4),
    coeffs=st.sampled_from([[1.0], [0.0, 1.0], [0.5, 0.0, 0.0, 1.0]]),
    k=st.integers(-900, 1030) | st.integers(1000, 1030),
)
def test_tikhonov_fit_is_exactly_linear_in_the_target(index, coeffs, k):
    # at a fixed ridge the fit of 2^k q is 2^k times the fit of q, bit for
    # bit, until it raises at the top of the double range: one ridge only
    basis = _scaling_bases()[index]
    values = evaluate_grid(np.array([coeffs], dtype=np.complex128), basis.circles)
    [fit] = completeness_fit(basis, values, 1e-10)
    # the CLI turns numpy's warnings off, as here
    with np.errstate(all="ignore"):
        [scaled] = completeness_fit(basis, _ldexp(values, k), 1e-10)
    if isinstance(scaled, (SingularSystem, NonFiniteCoefficient)):
        assert k + np.log2(np.abs(fit.weights).max()) > 1020
        return
    assert np.array_equal(_raw(scaled.weights), _raw(_ldexp(fit.weights, k)))
    assert scaled.residual_norm == np.ldexp(fit.residual_norm, k)


def test_fit_report_residual_is_true_sup_norm(gaussian_family):
    # the reported residual must match an independent evaluation of the
    # fitted combination on the verification circle
    _, family = gaussian_family
    lams = inverse_integer_lambdas(10)
    target = make_series([1.0], "1")
    fit = _fit(completeness_bases(family, [lams])[0], target)
    circle = DiskSpec(1.0, 128)
    fitted = sum(
        w * evaluate_grid(_member(family, lam).coeffs, circle)
        for w, lam in zip(fit.weights, lams.points)
    )
    resid = np.abs(fitted - evaluate_grid(target.coeffs, circle)).max()
    assert resid == pytest.approx(fit.residual_norm, rel=1e-9)


def test_fit_condition_diagnostic_positive(gaussian_family):
    _, family = gaussian_family
    fit = _fit(
        completeness_bases(family, [inverse_integer_lambdas(10)])[0],
        make_series([1.0]),
    )
    assert fit.condition_diag >= 1.0


def test_tikhonov_solves_at_the_ridge_asked_for():
    # 1e304 * 1e-5 / (1e-10 + 1e-10) = 5e308 leaves the double range, and
    # no larger ridge is tried; 1e303 gives the filter-factor weights
    a_mat = np.diag([1.0, 1e-5])
    w, _, [failure] = regularized_solve(a_mat, np.array([[0.0, 1e304]]), 1e-10)
    assert isinstance(failure, SingularSystem) and (w == 0).all()
    assert "at ridge 1.0e-10 leave the double range" in str(failure)
    [w], [cond], [failure] = regularized_solve(a_mat, np.array([[0.0, 1e303]]), 1e-10)
    assert failure is None
    assert w[0] == 0 and w[1] == pytest.approx(1e303 * 1e-5 / (1e-10 + 1e-10))
    assert cond == pytest.approx((1 + 1e-10) / (1e-10 + 1e-10))


def test_tikhonov_weights_past_the_double_range_are_singular():
    # 1e307 * 1e-2 / (1e-4 + 1e-10) is about 1e309
    w, _, [failure] = regularized_solve(
        np.diag([1.0, 1e-2]), np.array([[0.0, 1e307]]), 1e-10)
    assert isinstance(failure, SingularSystem) and (w == 0).all()
    assert str(failure) == (
        "Tikhonov weights at ridge 1.0e-10 leave the double range for |Lambda| = 2")


def test_truncated_svd_without_a_finite_cutoff():
    # every cutoff keeps 1e-5, and 1e308 / 1e-5 leaves the double range
    w, _, [failure] = regularized_solve(
        np.diag([1.0, 1e-5]), np.array([[1e308, 1e308]]), 0.0)
    assert isinstance(failure, SingularSystem) and (w == 0).all()
    assert str(failure) == "no usable truncated-SVD solution for |Lambda| = 2"


def _basis_alone(family, lams, disk=UNIT_DISK):
    """Basis of one lambda set built column by column, sharing nothing."""
    members = [_member(family, lam) for lam in lams.points]
    circles = collocation_circles(disk)
    verify = DiskSpec(disk.radius, VERIFY_POINTS)
    a_mat = np.column_stack([evaluate_grid(s.coeffs, circles) for s in members])
    return CompletenessBasis(
        lambdas=lams,
        rows=np.array([s.coeffs for s in members]),
        circles=circles + (verify,),
        collocation=a_mat,
        verification=np.column_stack([evaluate_grid(s.coeffs, verify) for s in members]),
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
    # built member by member for its set alone (a batched row holds the
    # bits of the row alone); the duplicated count 5 gets its own basis
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
        assert shared.circles == alone.circles
        for target in targets:
            fit_shared = _fit(shared, target, ridge)
            fit_alone = _fit(alone, target, ridge)
            assert (fit_shared.weights == fit_alone.weights).all()
            assert fit_shared.residual_norm == fit_alone.residual_norm
            assert fit_shared.condition_diag == fit_alone.condition_diag


def _stack_targets(basis) -> np.ndarray:
    """Values on the basis's circles of 1, z, z^2, 1/2 + z^3 and two
    random polynomials of degree 8."""
    rng = np.random.default_rng(5)
    coeffs = np.zeros((6, 9), dtype=np.complex128)
    coeffs[[0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
    coeffs[3, 0] = 0.5
    coeffs[4:] = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    return evaluate_grid(coeffs, basis.circles)


@pytest.mark.parametrize("ridge", [0.0, 1e-10])
def test_stacked_fit_rows_equal_one_target_fits(ridge):
    # each target of a stack has the bits of its fit as a one-row stack:
    # its weights, residual and condition (its own cutoff at ridge 0), and
    # each row of the solve the bits of its one-row solve
    for basis in _scaling_bases():
        values = _stack_targets(basis)
        stacked = completeness_fit(basis, values, ridge)
        assert len(stacked) == len(values)
        for row, fit in zip(values, stacked):
            [alone] = completeness_fit(basis, row[None], ridge)
            assert np.array_equal(_raw(fit.weights), _raw(alone.weights))
            assert fit.residual_norm == alone.residual_norm
            assert fit.condition_diag == alone.condition_diag
        rhs = values[:, :-VERIFY_POINTS]
        w, cond, failures = regularized_solve(basis.collocation, rhs, ridge)
        assert failures == [None] * len(values)
        for k, row in enumerate(rhs):
            [w_k], [cond_k], [failure] = regularized_solve(basis.collocation, row[None],
                                                           ridge)
            assert failure is None
            assert np.array_equal(_raw(w[k]), _raw(w_k)) and cond[k] == cond_k


def test_truncated_svd_scores_each_rank_once(monkeypatch):
    # adjacent cutoffs that keep the same prefix of the singular values
    # (at |Lambda| = 10 on D - zI, ranks 10, 9, 9, 8, 8, 7, 7, 7, 6) form
    # that rank's candidate weights once, for all targets in one call
    formed = []
    rowwise = weylcalc.eigen._rowwise

    def spy(x, matrix):
        # a rank-r candidate: the (T, r) coefficients times r rows of vh
        if matrix.shape == (x.shape[1], k) and x.shape[1] <= k:
            formed.append((x.shape[1], len(x)))
        return rowwise(x, matrix)

    monkeypatch.setattr(weylcalc.eigen, "_rowwise", spy)
    repeated = False
    for basis in _scaling_bases():
        k = basis.collocation.shape[1]
        s = basis.svd[1]
        ranks = [np.count_nonzero(s > cut * s[0])
                 for cut in [0.0] + [10.0 ** e for e in range(-15, -7)]]
        repeated |= len(set(ranks)) < len(ranks)
        rhs = _stack_targets(basis)[:, :-VERIFY_POINTS]
        for stack in (rhs, rhs[:1]):
            formed.clear()
            regularized_solve(basis.collocation, stack, 0.0, basis.svd)
            assert formed == [(rank, len(stack)) for rank in dict.fromkeys(ranks) if rank]
    assert repeated


@pytest.mark.parametrize("seed", range(8))
def test_stacked_svd_from_the_basis_svd_rebuilds_the_stack(seed):
    # S = [E diag(mu^n_1); ...; E diag(mu^n_m)] from the SVD of E and of the
    # small core: the factors rebuild S, and their singular values are
    # S's own, within a few u |S|
    rng = np.random.default_rng(seed)
    rows, k, m = int(rng.integers(4, 60)), int(rng.integers(2, 40)), int(rng.integers(1, 5))
    e_mat = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
    mu = rng.uniform(1.0, 4.0, k) * np.exp(2j * np.pi * rng.random(k))
    schedule = np.sort(rng.choice(np.arange(1, 25), m, replace=False))
    basis = CompletenessBasis(LambdaSet(np.arange(k)), None, (), e_mat, None)
    scales = [mu ** float(n) for n in schedule]
    matrix, (u, s, vh) = basis.stacked(scales)
    stack = np.vstack([e_mat * scale for scale in scales])
    assert np.array_equal(matrix, stack)
    assert u.shape == (m * rows, s.size) and vh.shape == (s.size, k)
    norm, u_round = np.linalg.norm(stack, 2), np.finfo(float).eps
    assert np.abs((u * s) @ vh - stack).max() <= 50 * u_round * norm
    assert np.abs(s - np.linalg.svd(stack, compute_uv=False)[: s.size]).max() <= (
        50 * u_round * norm)
    assert np.abs(u.conj().T @ u - np.eye(s.size)).max() <= 50 * u_round


def test_stacked_fit_keeps_each_targets_failure():
    # at ridge 1e-10 the weights of 1e304 leave the double range on the
    # inverse set of 10 points: that target's SingularSystem, while the
    # target 1 beside it is fitted as alone; a failed SVD fails every target
    basis = _scaling_bases()[1]
    values = evaluate_grid(np.array([[1e304], [1.0]], dtype=np.complex128),
                           basis.circles)
    failed, fit = completeness_fit(basis, values, 1e-10)
    assert isinstance(failed, SingularSystem)
    assert str(failed) == (
        "Tikhonov weights at ridge 1.0e-10 leave the double range for |Lambda| = 10"
    )
    [alone] = completeness_fit(basis, values[1:], 1e-10)
    assert np.array_equal(_raw(fit.weights), _raw(alone.weights))
    assert fit.residual_norm == alone.residual_norm
    [failed_alone] = completeness_fit(basis, values[:1], 1e-10)
    assert isinstance(failed_alone, SingularSystem)
    assert str(failed_alone) == str(failed)
    broken = CompletenessBasis(basis.lambdas, basis.rows, basis.circles,
                               np.full_like(basis.collocation, np.nan),
                               basis.verification)
    failures = completeness_fit(broken, values, 1e-10)
    assert [type(f) for f in failures] == [SingularSystem] * 2
    assert str(failures[0]).startswith("collocation SVD failed")


@pytest.mark.parametrize("kind", ["translate", "exponential"])
def test_bases_equal_evaluation_on_each_grid(gaussian_family, kind):
    # every basis of a disk has its circles: the collocation circles, then
    # the verification circle; each matrix holds the bits of an evaluation
    # of the rows on its own circles
    family = gaussian_family[1] if kind == "translate" else _EXPONENTIAL
    sets = [inverse_integer_lambdas(5), random_disk_lambdas(7, seed=2)]
    disk = DiskSpec(1.5, 64)
    for basis in completeness_bases(family, sets, disk):
        assert basis.circles == collocation_circles(disk) + (DiskSpec(1.5, VERIFY_POINTS),)
        for values, circles in ((basis.collocation, basis.circles[:-1]),
                                (basis.verification, basis.circles[-1])):
            assert values.flags.c_contiguous
            assert np.array_equal(_raw(values), _raw(evaluate_grid(basis.rows, circles).T))


def test_bases_never_merge_points_of_different_bits(gaussian_family, monkeypatch):
    # the boundary circle is every other point of the verification circle,
    # but each takes its values from its own FFT, nothing gathered from the
    # other; members with signed zeros among their coefficients included
    rows = np.array([[complex(-0.0, -0.0), -1.0, 0.5], [1.0, 2.0, 3.0],
                     [-0.0, complex(0.0, -0.0), 0.0]])
    monkeypatch.setattr(weylcalc.eigen, "_member_coeffs", lambda family, lams: rows)
    [basis] = completeness_bases(gaussian_family[1], [LambdaSet([1.0, 2.0, 3.0])])
    boundary, verify = (evaluate_grid(rows, c).T for c in basis.circles[::4])
    assert np.array_equal(_raw(basis.collocation[:64]), _raw(boundary))
    assert np.array_equal(_raw(basis.verification), _raw(verify))
    assert (basis.collocation[:, 2] == 0).all()


def test_bases_name_the_lambda_of_a_member_past_the_double_range():
    # the CLI turns numpy's warnings off, as here
    with np.errstate(all="ignore"), pytest.raises(NonFiniteCoefficient) as exc:
        completeness_bases(_EXPONENTIAL, [LambdaSet([0.5, 1e300])])
    assert str(exc.value) == (
        "eigenfunction coefficients at |lambda| up to 1e+300 leave the double range"
    )
