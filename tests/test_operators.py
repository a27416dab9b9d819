"""Operator algebra: commutators, ladder, conjugation, decomposition."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_weyl_operators, unit_disk_complex
from weylcalc.errors import (
    InconsistentConvolution,
    KernelResidualTooLarge,
    NotWeyl,
    OrderExhausted,
    ZeroOperator,
)
from weylcalc.operators import (
    N_CAP_MAX,
    CompositeOperator,
    ConvolutionOperator,
    WeylOperator,
    apply_composite,
    apply_weyl,
    commutator_matrix,
    decompose,
    diff_op,
    differentiate,
    exact_power,
    from_gaussian,
    ladder_check,
    matrix_on_monomials,
    op_on_poly,
    scalar_identity_diagnostics,
)
from weylcalc.series import (
    TaylorSeries,
    disk_sup_norm,
    gaussian_series,
    linear_combine,
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
    out = apply_weyl(d_minus_z(), TaylorSeries([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.coeffs, [0.0, -1.0, 0.0])


def test_weyl_with_a_zero_is_derivative_combination():
    # (D^2 + 3D) z^3 = 6z + 9z^2: with a = 0, T is the convolution operator
    m = ConvolutionOperator(np.array([0.0, 3.0, 1.0]))
    out = apply_weyl(WeylOperator(m, 0.0), TaylorSeries([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out.coeffs[:3], [0.0, 6.0, 9.0])


def test_weyl_with_a_zero_order_exhausted():
    m = diff_op(3)
    with pytest.raises(OrderExhausted):
        apply_weyl(WeylOperator(m, 0.0), TaylorSeries([1.0, 1.0]))


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
    e = matrix_on_monomials(d_minus_z(), 3)
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
    want = np.zeros_like(comm)
    for n in range(256):
        want[n, n] = 1.0
        if n >= 1:
            want[n - 1, n] = 2.0 * n
        want[n + 1, n] = -2.0
    assert comm.shape == (258, 256)
    assert np.array_equal(comm, want)


def test_commutator_on_the_constant_alone():
    # n_cap = 1 keeps one column, [L(T), D] 1 = a L'(T) 1 = (I + 2T) 1
    # = 1 - 2z for L(T) = T + T^2 and T = D - zI
    c = CompositeOperator(d_minus_z(), np.array([0.0, 1.0, 1.0]))
    comm = commutator_matrix(c, diff_op(1), 1)
    assert np.array_equal(comm, [[1.0], [-2.0], [0.0]])


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
        ladder_check(d_minus_z(), TaylorSeries([1.0] * 32), 2)


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


@pytest.mark.parametrize("n_cap", [32, N_CAP_MAX])
def test_decompose_reads_d_from_the_widest_column(n_cap):
    # d_k = e[n - k, n] / (n (n-1) ... (n-k+1)) on the last column n, the
    # falling factorial multiplied in that order; at the degree cap it
    # overflows, silently
    t = WeylOperator(ConvolutionOperator(np.array([0.5, 1.0 - 2.0j, 0.0, 3.0])), -2.0 + 1.0j)
    e = matrix_on_monomials(t, n_cap)
    a, m = decompose(e)
    assert a == t.a
    fall, want = 1.0, []
    for k in range(m.d.size):
        want.append(e[n_cap - k, n_cap] / fall)
        fall *= n_cap - k
    assert np.array_equal(m.d, want)


def test_decompose_rejects_z_squared_identity():
    # multiplication by z^2 is not of the form M - a z I
    n_cap = 16
    entries = np.zeros((n_cap + 3, n_cap + 1), dtype=np.complex128)
    for n in range(n_cap + 1):
        entries[n + 2, n] = 1.0
    with pytest.raises(NotWeyl) as exc:
        decompose(entries)
    assert exc.value.offdiag_max > 1e-9


def test_decompose_rejects_variable_coefficients():
    # Op z^n = n^2 z^n commutes with nothing useful: [Op, D] is diagonal
    # but not scalar, or the convolution part is inconsistent
    n_cap = 8
    entries = np.zeros((n_cap + 2, n_cap + 1), dtype=np.complex128)
    for n in range(n_cap + 1):
        entries[n, n] = n * n
    with pytest.raises((NotWeyl, InconsistentConvolution)):
        decompose(entries)


def test_from_gaussian_past_the_double_range_is_a_signed_infinity():
    # 2**1100 / 2 has no double; the sign comes from the integer itself
    huge = 1 << 1100
    out = from_gaussian([huge, -huge, 3], [-huge, 0, huge], 1)
    assert np.array_equal(out.real, [np.inf, -np.inf, 1.5])
    assert np.array_equal(out.imag, [-np.inf, 0.0, np.inf])


def _fraction_rounded(x: int, e: int) -> float:
    """x / 2**e rounded once by Fraction, a signed infinity past the range."""
    try:
        return float(Fraction(x, 1 << e))
    except OverflowError:
        return math.inf if x > 0 else -math.inf


#: integers whose quotients are exact ties, subnormal, or past the range
_GAUSSIAN_PARTS = st.one_of(
    st.sampled_from([0, 1, -1, 3, -3, 2**53 + 1, -(2**53 + 3), 2**1024 - 2**970,
                     -(2**1024), 2**1100 + 1]),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**1100), 2**1100),
    # a run of ones, which rounding to 53 bits turns into a tie further up
    st.builds(lambda a, b, c: a * 2**b - c, st.integers(-(2**12), 2**12),
              st.integers(40, 70), st.integers(1, 3)),
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(_GAUSSIAN_PARTS, _GAUSSIAN_PARTS), max_size=8),
       e=st.one_of(st.integers(0, 200), st.integers(1000, 1200), st.integers(2000, 2300)))
@example(parts=[(1, -1), (3, -3), (2**53 + 1, 5)], e=1075)  # ties below the normals
@example(parts=[(1, -1), (0, 2**52 + 1)], e=1100)  # +0, -0 and a subnormal
# rounded to 53 bits, 2**60 + 2**50 + 2**49 - 1 ties at the subnormal grid
@example(parts=[(2**60 + 2**50 + 2**49 - 1, -(2**60 + 2**50 + 2**49 - 1))], e=1124)
# 2**54 + 1 rounds to 2**54, whose quotient is a tie that rounds to 0
@example(parts=[(2**54 + 1, -(2**54 + 1))], e=1129)
@example(parts=[(2**53 + 1, -(2**53 + 3)), (2**1024 - 2**970, 0)], e=0)
@example(parts=[(2**1100 + 1, -(2**1024))], e=100)  # past 2**1024, finite after
def test_from_gaussian_equals_fraction_rounding(parts, e):
    re = [x for x, _ in parts]
    im = [y for _, y in parts]
    got = from_gaussian(re, im, e)
    want = np.array([complex(_fraction_rounded(x, e), _fraction_rounded(y, e))
                     for x, y in parts], dtype=np.complex128)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# the exact core against a Fraction oracle


_ZERO = (Fraction(0), Fraction(0))


def _pair(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _oracle_t(d, a, p, keep):
    """(sum_k d_k D^k - a z) p on exact coefficient pairs, cut to ``keep``
    coefficients when it is not None."""
    out = [_ZERO] * (len(p) + 1)
    minus_a = _pair(-a)
    for n, c in enumerate(p):
        fall = 1  # n (n-1) ... (n-k+1)
        for k, dk in enumerate(d[: n + 1]):
            out[n - k] = _add(out[n - k], _mul(_pair(dk), (fall * c[0], fall * c[1])))
            fall *= n - k
        out[n + 1] = _add(out[n + 1], _mul(minus_a, c))
    return out if keep is None else out[:keep]


def _oracle_apply(spec, p, keep=None):
    """L(T) p = sum_k l_k T^k p for spec = (d, a, l)."""
    d, a, l = spec
    acc, x = [], p
    for k, lk in enumerate(l):
        if k:
            x = _oracle_t(d, a, x, keep)
        acc += [_ZERO] * (len(x) - len(acc))
        acc = [_add(s, _mul(_pair(lk), c)) for s, c in zip(acc, x)]
    return acc


def _spec_operator(spec):
    d, a, l = spec
    t = WeylOperator(ConvolutionOperator(np.array(d, dtype=np.complex128)), a)
    return t if l == [0, 1] else CompositeOperator(t, np.array(l, dtype=np.complex128))


def _random_values(rng, size):
    """Complex doubles: short dyadic rationals m / 2**k, some parts exactly
    zero, mixed with full 53-bit mantissas."""
    num = rng.integers(-64, 65, (2, size)) * (rng.random((2, size)) < 0.7)
    short = (num[0] + 1j * num[1]) / 2.0 ** rng.integers(0, 12, size)
    full = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return np.where(rng.random(size) < 0.5, short, full)


def _random_spec(rng, a):
    order = int(rng.integers(1, 4))
    d = list(_random_values(rng, order + 1))
    d[order] = d[order] or 1.0
    degree = int(rng.integers(1, 3))
    l = [0, 1] if rng.random() < 0.4 else list(_random_values(rng, degree + 1))
    return d, a, l


def _rounded_bits(exact) -> np.ndarray:
    """The correctly rounded doubles of exact pairs, as raw bits."""
    return np.array([complex(float(x), float(y)) for x, y in exact]).view(np.uint64)


A_VALUES = [0.75, -1.5, 0.5j, -0.375j, -0.6 + 0.8j, 0.0]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("a", A_VALUES)
def test_commutator_matrix_equals_fraction_oracle(seed, a):
    rng = np.random.default_rng(seed)
    spec_a = _random_spec(rng, a)
    spec_b = _random_spec(rng, complex(_random_values(rng, 1)[0]))
    n_cap = int(rng.integers(1, 10))
    comm = commutator_matrix(_spec_operator(spec_a), _spec_operator(spec_b), n_cap)
    for j in range(n_cap):
        z_j = [_ZERO] * j + [(Fraction(1), Fraction(0))]
        ab = _oracle_apply(spec_a, _oracle_apply(spec_b, z_j))
        ba = _oracle_apply(spec_b, _oracle_apply(spec_a, z_j))
        col = [(x[0] - y[0], x[1] - y[1]) for x, y in zip(ab, ba, strict=True)]
        rows = comm.shape[0]
        assert all(x == (0, 0) for x in col[rows:])  # no row is cut off
        col = col[:rows] + [_ZERO] * (rows - len(col))
        assert np.array_equal(np.ascontiguousarray(comm[:, j]).view(np.uint64),
                              _rounded_bits(col))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_exact_power_equals_fraction_oracle(seed, a, n):
    rng = np.random.default_rng(100 + seed)
    spec = _random_spec(rng, a)
    coeffs = _random_values(rng, int(rng.integers(1, 12)))
    g, e = exact_power(_spec_operator(spec), coeffs, n)
    want = [_pair(c) for c in coeffs]
    for _ in range(n):
        want = _oracle_apply(spec, want, keep=len(coeffs))
    assert [(Fraction(x, 1 << e), Fraction(y, 1 << e)) for x, y in zip(*g)] == want
    assert np.array_equal(from_gaussian(g[0], g[1], e).view(np.uint64),
                          _rounded_bits(want))
