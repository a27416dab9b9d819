"""Operator algebra: commutators, ladder, conjugation, decomposition."""

import numpy as np
import pytest

from conftest import random_weyl_operators, unit_disk_complex
from weylcalc.errors import (
    InconsistentConvolution,
    KernelResidualTooLarge,
    NotWeyl,
    OrderExhausted,
    ZeroOperator,
)
from weylcalc.operators import (
    CompositeOperator,
    ConvolutionOperator,
    OperatorMatrix,
    WeylOperator,
    apply_composite,
    apply_conv,
    apply_weyl,
    commutator_matrix,
    decompose,
    diff_op,
    differentiate,
    from_gaussian,
    ladder_check,
    matrix_on_monomials,
    op_on_poly,
    scalar_identity_diagnostics,
)
from weylcalc.series import (
    disk_sup_norm,
    gaussian_series,
    linear_combine,
    make_series,
    multiply_by_poly,
)


def d_minus_z():
    return WeylOperator(diff_op(1), 1.0)


# ---------------------------------------------------------------------------
# constructors


def test_zero_convolution_rejected():
    with pytest.raises(ZeroOperator):
        ConvolutionOperator(np.zeros(3))


def test_characteristic_polynomial():
    m = ConvolutionOperator(np.array([0.0, 1.0, 1.0]))  # L(l) = l^2 + l
    assert m.characteristic(2.0) == pytest.approx(6.0)
    assert m.order == 2


def test_composite_eigenvalue_is_poly_eval():
    c = CompositeOperator(d_minus_z(), np.array([0.0, 1.0, 1.0]))
    assert c.eigenvalue(3.0) == pytest.approx(12.0)
    assert c.poly_degree == 2


# ---------------------------------------------------------------------------
# series application


def test_apply_weyl_on_constant():
    # (D - zI) 1 = -z; the result lives on the common coefficient range
    out = apply_weyl(d_minus_z(), make_series([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.coeffs, [0.0, -1.0, 0.0])


def test_apply_conv_is_derivative_combination():
    # (D^2 + 3D) z^3 = 6z + 9z^2
    m = ConvolutionOperator(np.array([0.0, 3.0, 1.0]))
    out = apply_conv(m, make_series([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out.coeffs[:3], [0.0, 6.0, 9.0])


def test_apply_conv_order_exhausted():
    m = diff_op(3)
    with pytest.raises(OrderExhausted):
        apply_conv(m, make_series([1.0, 1.0]))


def test_composite_horner_matches_expanded_operator():
    # L(T) = T^2 + T for T = D - zI, applied two ways to the same series
    t = d_minus_z()
    c = CompositeOperator(t, np.array([0.0, 1.0, 1.0]))
    f = gaussian_series(64)
    via_horner = apply_composite(c, f)
    tf = apply_weyl(t, f)
    via_expanded = linear_combine([(1.0, apply_weyl(t, tf)), (1.0, tf)])
    n = min(len(via_horner), len(via_expanded))
    assert np.abs(via_horner.coeffs[:n] - via_expanded.coeffs[:n]).max() <= 1e-12


# ---------------------------------------------------------------------------
# exact polynomial action and monomial matrices


def test_op_on_poly_oracle():
    # (D - zI) z^2 = 2z - z^3
    out = op_on_poly(d_minus_z(), [0.0, 0.0, 1.0])
    assert np.allclose(out, [0.0, 2.0, 0.0, -1.0])


def test_matrix_on_monomials_columns():
    # column n of D - zI holds n z^{n-1} - z^{n+1}
    mat = matrix_on_monomials(d_minus_z(), 3)
    e = mat.entries
    for n in range(4):
        col = np.zeros(e.shape[0], dtype=np.complex128)
        if n >= 1:
            col[n - 1] = n
        col[n + 1] = -1.0
        assert np.allclose(e[:, n], col)


def test_commutator_d_minus_2z_with_d():
    # [D - 2zI, D] = 2I (Theorem 5 direction 1 with a = 2)
    t = WeylOperator(diff_op(1), 2.0)
    comm = commutator_matrix(t, diff_op(1), 32)
    a_est, offdiag, spread = scalar_identity_diagnostics(comm)
    assert a_est == pytest.approx(2.0, abs=1e-14)
    assert offdiag <= 1e-14
    assert spread <= 1e-14


def test_commutator_of_polynomial_is_exact_derivative():
    # [L(T), D] = a L'(T): for L(T) = T + T^2 and T = D - zI, the matrix
    # of I + 2T, entry by entry
    c = CompositeOperator(d_minus_z(), np.array([0.0, 1.0, 1.0]))
    comm = commutator_matrix(c, diff_op(1), 256)
    want = np.zeros_like(comm.entries)
    for n in range(256):
        want[n, n] = 1.0
        if n >= 1:
            want[n - 1, n] = 2.0 * n
        want[n + 1, n] = -2.0
    assert comm.entries.shape == (258, 256)
    assert np.array_equal(comm.entries, want)


def test_commutation_relation_random_operators():
    for t in random_weyl_operators(10, seed=7):
        comm = commutator_matrix(t, diff_op(1), 32)
        a_est, offdiag, spread = scalar_identity_diagnostics(comm)
        assert abs(a_est - t.a) <= 1e-12
        assert offdiag <= 1e-12
        assert spread <= 1e-12


# ---------------------------------------------------------------------------
# ladder identity and conjugation


def test_ladder_check_gaussian():
    res = ladder_check(d_minus_z(), gaussian_series(128), 5)
    assert len(res) == 6
    assert max(res) <= 1e-8


def test_ladder_check_rejects_non_kernel_series():
    with pytest.raises(KernelResidualTooLarge):
        ladder_check(d_minus_z(), make_series([1.0] * 32), 2)


def test_conjugation_identity_random_polynomials():
    # T^k (e^{z^2/2} g) = e^{z^2/2} g^{(k)} for T = D - zI
    rng = np.random.default_rng(3)
    t = d_minus_z()
    gauss = gaussian_series(128)
    for _ in range(5):
        deg = int(rng.integers(0, 21))
        g = unit_disk_complex(rng, deg + 1)
        lhs = multiply_by_poly(gauss, g)
        gk = np.atleast_1d(g)
        for k in range(1, 6):
            lhs = apply_weyl(t, lhs)
            gk = gk[1:] * np.arange(1, gk.size) if gk.size > 1 else np.zeros(1)
            rhs = multiply_by_poly(gauss, gk)
            diff = linear_combine([(1.0, lhs), (-1.0, rhs)])
            assert disk_sup_norm(diff) <= 1e-8


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_round_trip_named_operator():
    t = d_minus_z()
    a, m = decompose(matrix_on_monomials(t, 32))
    assert a == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m.d, [0.0, 1.0])


def test_decompose_round_trip_random():
    for t in random_weyl_operators(10, seed=11):
        a, m = decompose(matrix_on_monomials(t, 32))
        assert abs(a - t.a) <= 1e-10
        n = max(m.d.size, t.m.d.size)
        got = np.zeros(n, dtype=np.complex128)
        want = np.zeros(n, dtype=np.complex128)
        got[: m.d.size] = m.d
        want[: t.m.d.size] = t.m.d
        assert np.abs(got - want).max() <= 1e-10


def test_decompose_rejects_z_squared_identity():
    # multiplication by z^2 is not of the form M - a z I
    n_cap = 16
    entries = np.zeros((n_cap + 3, n_cap + 1), dtype=np.complex128)
    for n in range(n_cap + 1):
        entries[n + 2, n] = 1.0
    with pytest.raises(NotWeyl) as exc:
        decompose(OperatorMatrix(entries, n_cap))
    assert exc.value.offdiag_max > 1e-9


def test_decompose_rejects_variable_coefficients():
    # Op z^n = n^2 z^n commutes with nothing useful: [Op, D] is diagonal
    # but not scalar, or the convolution part is inconsistent
    n_cap = 8
    entries = np.zeros((n_cap + 2, n_cap + 1), dtype=np.complex128)
    for n in range(n_cap + 1):
        entries[n, n] = n * n
    with pytest.raises((NotWeyl, InconsistentConvolution)):
        decompose(OperatorMatrix(entries, n_cap))


def test_from_gaussian_past_the_double_range_is_a_signed_infinity():
    # 2**1100 / 2 has no double; the sign comes from the integer itself
    huge = 1 << 1100
    out = from_gaussian([huge, -huge, 3], [-huge, 0, huge], 1)
    assert np.array_equal(out.real, [np.inf, -np.inf, 1.5])
    assert np.array_equal(out.imag, [-np.inf, 0.0, np.inf])
