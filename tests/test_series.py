"""Truncated Taylor-series arithmetic against independent oracles."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rounded_points, roots_of_unity
from weylcalc.errors import (
    EmptyCoefficients,
    EmptyCombination,
    InvalidDisk,
    NonFiniteCoefficient,
    OrderExhausted,
)
from weylcalc.operators import differentiate
from weylcalc.series import (
    DiskSpec,
    TaylorSeries,
    disk_sup_norm,
    evaluate_grid,
    exponential_rows,
    gaussian_series,
    linear_combine,
    make_series,
    multiply_by_poly,
    translate,
)


def _exponential(lam, n_terms):
    """The truncation of exp(lam z) to n_terms coefficients."""
    return make_series(exponential_rows([lam], n_terms)[0])


# ---------------------------------------------------------------------------
# construction and validation


def test_make_series_trusts_all_coefficients():
    s = make_series([1.0, 2.0, 3.0])
    assert len(s) == 3


def test_empty_coefficients_rejected():
    with pytest.raises(EmptyCoefficients):
        make_series([])


def test_non_finite_coefficients_rejected():
    with pytest.raises(NonFiniteCoefficient):
        TaylorSeries(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteCoefficient):
        TaylorSeries(np.array([np.inf, 1.0]))


def test_coefficients_are_immutable():
    s = make_series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_disk_spec_validation():
    with pytest.raises(InvalidDisk):
        DiskSpec(-1.0)
    with pytest.raises(InvalidDisk):
        DiskSpec(1.0, 4)


# ---------------------------------------------------------------------------
# generators against closed forms


def test_gaussian_series_coefficients():
    # independent oracle: exp(z^2/2) = sum z^{2k} / (2^k k!)
    s = gaussian_series(41)
    for k in range(20):
        expected = 1.0 / (2**k * math.factorial(k))
        assert s.coeffs[2 * k + 1] == 0
        assert abs(s.coeffs[2 * k] - expected) <= 1e-15 * expected


def test_exponential_series_coefficients():
    lam = 0.7 - 0.3j
    s = _exponential(lam, 30)
    for n in range(30):
        expected = lam**n / math.factorial(n)
        assert abs(s.coeffs[n] - expected) <= 1e-14 * abs(expected) + 1e-300


@settings(max_examples=60, deadline=None)
@given(
    lams=st.lists(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    n_terms=st.integers(1, 160),
)
def test_exponential_rows_equal_scalar_recurrence(lams, n_terms):
    # every lambda at once, each row rounded as the numpy-scalar
    # recurrence c[n] = c[n-1] * lam / n rounds it, zero signs included
    lams = np.array(lams + [0.0, complex(-0.0, -0.0), 300j], dtype=np.complex128)
    rows = exponential_rows(lams, n_terms)
    assert rows.shape == (lams.size, n_terms)
    for row, lam in zip(rows, lams):
        c = np.empty(n_terms, dtype=np.complex128)
        c[0] = 1.0
        for n in range(1, n_terms):
            c[n] = c[n - 1] * lam / n
        assert row.tobytes() == c.tobytes()


# ---------------------------------------------------------------------------
# differentiation


def test_differentiate_oracle():
    # d/dz of 1 + 2z + 3z^2 + 4z^3 = 2 + 6z + 12z^2
    s = make_series([1.0, 2.0, 3.0, 4.0])
    d = differentiate(s)
    assert np.allclose(d.coeffs, [2.0, 6.0, 12.0])


def test_differentiate_second_order():
    s = make_series([0.0, 0.0, 0.0, 1.0])  # z^3
    d2 = differentiate(s, 2)
    assert np.allclose(d2.coeffs, [0.0, 6.0])


def test_differentiate_order_exhausted():
    s = make_series([1.0, 2.0])
    with pytest.raises(OrderExhausted):
        differentiate(s, 2)


def test_differentiate_of_exponential_is_scaling():
    lam = 1.3 + 0.4j
    s = _exponential(lam, 64)
    d = differentiate(s)
    assert np.abs(d.coeffs[:50] - lam * s.coeffs[:50]).max() <= 1e-13


# ---------------------------------------------------------------------------
# translation


def test_translate_polynomial_exact():
    # (z + lam)^2 = lam^2 + 2 lam z + z^2
    s = make_series([0.0, 0.0, 1.0])
    lam = 0.5 - 0.25j
    t = translate(s, lam)
    assert np.allclose(t.coeffs, [lam**2, 2 * lam, 1.0])


def test_translate_exponential_scales():
    # exp(lam (z + mu)) = exp(lam mu) exp(lam z)
    lam, mu = 0.8 + 0.1j, -0.6 + 0.4j
    s = _exponential(lam, 96)
    t = translate(s, mu)
    scale = np.exp(lam * mu)
    assert np.abs(t.coeffs[:60] - scale * s.coeffs[:60]).max() <= 1e-12


def test_translate_zero_is_identity():
    s = gaussian_series(32)
    assert translate(s, 0.0) is s


def test_translate_gaussian_against_convolution_oracle():
    # exp((z+lam)^2/2) = exp(lam^2/2) * exp(lam z) * exp(z^2/2):
    # coefficients from an independent polynomial product
    lam = 1.1 - 0.3j
    n = 80
    t = translate(gaussian_series(128), lam)
    gauss = np.zeros(n, dtype=np.complex128)
    for k in range(0, n, 2):
        gauss[k] = 1.0 / (2 ** (k // 2) * math.factorial(k // 2))
    expo = np.array([lam**j / math.factorial(j) for j in range(n)])
    oracle = np.exp(lam**2 / 2.0) * np.convolve(gauss, expo)[:n]
    assert np.abs(t.coeffs[:n] - oracle).max() <= 1e-12


# ---------------------------------------------------------------------------
# evaluation and norms


def test_evaluate_matches_polyval():
    s = make_series([1.0, -2.0, 0.5, 3.0])
    for disk in (DiskSpec(0.5, 8), DiskSpec(1.0, 8), DiskSpec(2.0, 12)):
        want = np.polyval(s.coeffs[::-1], rounded_points(disk))
        assert np.abs(evaluate_grid(s.coeffs, disk) - want).max() <= 1e-13


def test_evaluate_grid_shape_and_values():
    s = _exponential(1.0, 64)
    circles = [DiskSpec(1.0, 16), DiskSpec(0.5, 8)]
    vals = evaluate_grid(s.coeffs, circles)
    assert vals.shape == (24,)
    pts = np.concatenate([rounded_points(disk) for disk in circles])
    assert np.abs(vals - np.exp(pts)).max() <= 1e-12


def _exact_values(coeffs, disk: DiskSpec) -> np.ndarray:
    """The values at R w^j by Horner in 50-digit decimal arithmetic, each
    rounded once: the oracle."""
    radius = Decimal(disk.radius)
    terms = [(Decimal(c.real), Decimal(c.imag)) for c in coeffs[::-1]]
    values = []
    for cos, sin in roots_of_unity(disk.grid_points):
        zr, zi = radius * cos, radius * sin
        ar = ai = Decimal(0)
        for cr, ci in terms:
            ar, ai = ar * zr - ai * zi + cr, ar * zi + ai * zr + ci
        values.append(complex(float(ar), float(ai)))
    return np.array(values)


def test_evaluate_grid_against_the_exact_roots_of_unity():
    # the members of the complete-fit presets, translates of exp(z^2/2),
    # on the boundary circle and the innermost ring: within 1e-15 of the
    # sum of |c_k| R^k at the exact roots
    from weylcalc.eigen import (
        inverse_integer_lambdas, random_disk_lambdas, segment_lambdas)

    lams = np.concatenate([inverse_integer_lambdas(40).points[[0, 39]],
                           segment_lambdas(40).points[[10, 30]],
                           random_disk_lambdas(80, seed=4).points[[0, 79]]])
    f0 = gaussian_series(128)
    with localcontext() as ctx:
        ctx.prec = 50
        for lam in lams:
            coeffs = translate(f0, lam).coeffs
            for disk in (DiskSpec(1.0, 64), DiskSpec(0.25, 32)):
                scale = (np.abs(coeffs) * disk.radius ** np.arange(coeffs.size)).sum()
                err = np.abs(evaluate_grid(coeffs, disk) - _exact_values(coeffs, disk))
                assert err.max() <= 1e-15 * scale


def test_disk_sup_norm_of_monomial():
    # |z^3| on |z| = 2 is 8
    s = make_series([0.0, 0.0, 0.0, 1.0])
    assert disk_sup_norm(s, DiskSpec(2.0, 64)) == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# combination and polynomial multiplication


def test_linear_combine_oracle():
    a = make_series([1.0, 1.0])
    b = make_series([0.0, 2.0, 5.0])
    c = linear_combine([(2.0, a), (-1.0, b)])
    assert np.allclose(c.coeffs, [2.0, 0.0])
    assert len(c) == 2


def test_linear_combine_empty_rejected():
    with pytest.raises(EmptyCombination):
        linear_combine([])


def test_multiply_by_poly_oracle():
    # (1 + z) * (1 - z) = 1 - z^2
    s = make_series([1.0, 1.0])
    p = multiply_by_poly(s, [1.0, -1.0])
    assert np.allclose(p.coeffs, [1.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# property tests

finite_coeffs = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)
small_shift = st.complex_numbers(
    max_magnitude=0.75, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(finite_coeffs, small_shift, small_shift)
def test_translate_additivity(coeffs, a, b):
    """f(z+a+b) = (f(z+a))(z+b) for polynomials, within 1e-8."""
    f = make_series(coeffs)
    one = translate(f, a + b)
    two = translate(translate(f, a), b)
    assert np.abs(one.coeffs - two.coeffs).max() <= 1e-8


@settings(max_examples=50, deadline=None)
@given(finite_coeffs, small_shift)
def test_translate_commutes_with_differentiation(coeffs, lam):
    """D(f(z+lam)) = (Df)(z+lam) within 1e-10 (exact for polynomials)."""
    if len(coeffs) < 2:
        coeffs = coeffs + [0.0]
    f = make_series(coeffs)
    left = differentiate(translate(f, lam))
    right = translate(differentiate(f), lam)
    assert np.abs(left.coeffs - right.coeffs).max() <= 1e-10


@settings(max_examples=50, deadline=None)
@given(finite_coeffs, finite_coeffs)
def test_sup_norm_subadditive(ca, cb):
    fa, fb = make_series(ca), make_series(cb)
    s = linear_combine([(1.0, fa), (1.0, fb)])
    lhs = disk_sup_norm(s)
    # the sum lives on the common prefix; compare against prefix norms
    n = len(s)
    fa_cut = make_series(fa.coeffs[:n])
    fb_cut = make_series(fb.coeffs[:n])
    assert lhs <= disk_sup_norm(fa_cut) + disk_sup_norm(fb_cut) + 1e-10


@settings(max_examples=50, deadline=None)
@given(
    finite_coeffs,
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_evaluate_linear_in_coefficients(coeffs, w, z):
    f = make_series(coeffs)
    scaled = make_series(np.array(coeffs) * w)
    disk = DiskSpec(abs(z) or 1.0, 8)  # the circle through z
    assert np.abs(
        evaluate_grid(scaled.coeffs, disk) - w * evaluate_grid(f.coeffs, disk)
    ).max() <= 1e-9 * (1 + abs(w))


def test_series_loads_without_the_eigen_and_orbit_layers():
    # the package root re-exports nothing, so a module loads what it imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, weylcalc.series; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "weylcalc.series" in loaded
    for layer in ("weylcalc.eigen", "weylcalc.orbit", "weylcalc.kernel_solver"):
        assert layer not in loaded
