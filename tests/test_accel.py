"""The numpy hot kernels: series translation against the exact shift,
and values on circles (``series.evaluate_grid``) against the Horner loop
they replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import rounded_points
from weylcalc import accel
from weylcalc.series import DiskSpec, evaluate_grid


def test_translate_kernel_wrapper_types():
    out = accel.translate_kernel(np.array([1.0, 1.0]), np.array([0.5]))
    assert out.dtype == np.complex128
    # (z + 0.5) shifted: coefficients [1.5, 1]
    assert np.allclose(out, [[1.5, 1.0]])


def test_active_backend_is_reported():
    assert accel.backend() == "numpy"


def _bits(a):
    return np.ascontiguousarray(a).view(np.float64)


def test_kernels_take_a_batch():
    coeffs = np.arange(5.0)
    lams = np.array([0.5, 1j, -2.0])
    assert accel.translate_kernel(coeffs, lams[:1]).shape == (1, 5)
    assert accel.translate_kernel(coeffs, lams).shape == (3, 5)
    circles = [DiskSpec(1.0, 8), DiskSpec(0.5, 9)]
    assert evaluate_grid(coeffs, circles[0]).shape == (8,)
    assert evaluate_grid(coeffs, circles).shape == (17,)
    assert evaluate_grid(np.ones((3, 5)), circles).shape == (3, 17)


def _dyadic(values) -> tuple:
    """Doubles as integers over one power of two: (ints, e), value = int / 2^e."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (e - den.bit_length() + 1) for num, den in ratios], e


def _exact_shift(coeffs, lam) -> list:
    """f(z + lam) for the doubles ``coeffs`` and ``lam``, exactly: each
    coefficient b_m as a pair of Fractions.

    With c_k = C_k / 2^e and lam = L / 2^s (C_k, L Gaussian integers),
    G_k = C_k 2^(s (N - 1 - k)) is shifted by L in integers (the Taylor
    shift, a[k] += L a[k + 1]), and b_m = H_m 2^(s m) / 2^(e + s (N - 1)).
    """
    n_len = len(coeffs)
    ints, e = _dyadic([c.real for c in coeffs] + [c.imag for c in coeffs])
    re, im = ints[:n_len], ints[n_len:]
    (lr, li), s = _dyadic([lam.real, lam.imag])
    a = [(re[k] << s * (n_len - 1 - k), im[k] << s * (n_len - 1 - k))
         for k in range(n_len)]
    for i in range(n_len - 1):
        for k in range(n_len - 2, i - 1, -1):
            xr, xi = a[k + 1]
            a[k] = (a[k][0] + lr * xr - li * xi, a[k][1] + lr * xi + li * xr)
    den = 1 << e + s * (n_len - 1)
    return [(Fraction(hr << s * m, den), Fraction(hi << s * m, den))
            for m, (hr, hi) in enumerate(a)]


def _shift_scale(coeffs, lam) -> np.ndarray:
    """sum_j C(m + j, m) |c_(m+j)| |lam|^j for each m: the Taylor shift of
    |c| by |lam|, in floats (no cancellation among positive terms)."""
    a = list(np.abs(coeffs))
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] += abs(lam) * a[k + 1]
    return np.array(a)


@pytest.mark.parametrize("n_len", [1, 2, 17, 128, 160])
def test_batched_translate_rows_equal_single_shifts(n_len):
    # every batched row has the bits of its one-shift batch, and is within
    # 4 N u sum_j |C(m + j, m) c_(m+j) lam^j| of the exact shift, u = 2^-53:
    # a row sums N terms, each a binomial rounded once per ratio of its
    # running product, times c and lam^j; numpy takes lam^j for j >= 100
    # as exp(j log lam), which sets the worst case here, 3.1 N u at N = 160
    rng = np.random.default_rng(n_len)
    coeffs = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
    lams = 8 * (rng.random(12) - 0.5) + 8j * (rng.random(12) - 0.5)
    rows = accel.translate_kernel(coeffs, lams)
    for row, lam in zip(rows, lams):
        alone = accel.translate_kernel(coeffs, [lam])[0]
        assert np.array_equal(_bits(alone), _bits(row))
        err = np.array([
            math.hypot(Fraction(b.real) - br, Fraction(b.imag) - bi)
            for b, (br, bi) in zip(row.tolist(), _exact_shift(coeffs, lam))
        ])
        assert (err <= 4 * n_len * 2.0**-53 * _shift_scale(coeffs, lam)).all()


# ---------------------------------------------------------------------------
# values on circles


def _circles(count):
    """``count`` circles of 8, 13, 18, ... points (primes and odd sizes
    among them) and radii up to 1.3."""
    return [DiskSpec(1.3 * (i + 1) / count, 8 + 5 * i) for i in range(count)]


def _horner(coeffs, points):
    # the out-of-place Horner loop, (..., P) like evaluate_grid: the reference
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    y = np.zeros(coeffs.shape[:-1] + points.shape, dtype=np.complex128)
    for c in coeffs.T[::-1]:
        y = y * points + c[..., None]
    return y


def _points(circles):
    return np.concatenate([rounded_points(disk) for disk in circles])


def _bound(coeffs, circles):
    """(8 N + 8 log2 M) u sum_k |c_k| R^k on each circle's M points, u =
    2^-53: the rounding of the Horner loop and of its rounded points,
    which the values at the exact roots of unity do not share, and that
    of an FFT of M points, prime M included."""
    coeffs = np.asarray(coeffs)
    n_len = coeffs.shape[-1]
    return np.concatenate([
        np.repeat((np.abs(coeffs) * disk.radius ** np.arange(n_len)).sum(-1)[..., None]
                  * (8 * n_len + 8 * np.log2(disk.grid_points)) * 2.0**-53,
                  disk.grid_points, axis=-1)
        for disk in circles
    ], axis=-1)


@pytest.mark.parametrize("n_len", [1, 2, 17, 128])
def test_eval_grid_matrix_equals_its_rows(n_len):
    # a batched row holds the bits of the row alone
    rng = np.random.default_rng(n_len)
    rows = rng.standard_normal((9, n_len)) + 1j * rng.standard_normal((9, n_len))
    circles = _circles(3)
    values = evaluate_grid(rows, circles)
    for k, row in enumerate(rows):
        assert np.array_equal(_bits(values[k]), _bits(evaluate_grid(row, circles)))


@pytest.mark.parametrize("n_len", [1, 2, 17, 128])
def test_eval_grid_equals_polyval(n_len):
    rng = np.random.default_rng(n_len)
    coeffs = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
    circles = _circles(2)
    want = np.polyval(coeffs[::-1], _points(circles))
    assert (np.abs(evaluate_grid(coeffs, circles) - want) <= _bound(coeffs, circles)).all()


@pytest.mark.parametrize("k_rows", [None, 1, 2, 9])
@pytest.mark.parametrize("n_len", [1, 2, 17, 128])
@pytest.mark.parametrize("n_circles", [1, 2, 3, 40])
def test_eval_grid_equals_out_of_place_loop(k_rows, n_len, n_circles):
    # None: one 1-d coefficient vector; up to 16 folds of 128 coefficients
    # on 8 points, none on the larger circles
    rng = np.random.default_rng([n_len, n_circles, k_rows or 0])
    shape = (n_len,) if k_rows is None else (k_rows, n_len)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    circles = _circles(n_circles)
    values = evaluate_grid(coeffs, circles)
    assert values.shape == shape[:-1] + (sum(d.grid_points for d in circles),)
    reference = _horner(coeffs, _points(circles))
    assert (np.abs(values - reference) <= _bound(coeffs, circles)).all()


@pytest.mark.parametrize("k_rows", [None, 1, 4])
def test_eval_grid_equals_out_of_place_loop_at_signed_zeros(k_rows):
    # row 0 is all signed zeros, row 1 has a -0.0 constant term
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((4, 17)) + 1j * rng.standard_normal((4, 17))
    rows[0] = [complex(-0.0, -0.0), complex(0.0, -0.0), -0.0] * 5 + [0.0, -0.0]
    rows[1, :2] = [complex(-0.0, -0.0), -1.0]
    coeffs = rows[0] if k_rows is None else rows[:k_rows]
    circles = _circles(3)
    values = evaluate_grid(coeffs, circles)
    assert (np.abs(values - _horner(coeffs, _points(circles)))
            <= _bound(coeffs, circles)).all()
    assert ((values if k_rows is None else values[0]) == 0).all()
    for k, row in enumerate(np.atleast_2d(coeffs)):
        alone = evaluate_grid(row, circles)
        assert np.array_equal(_bits(np.atleast_2d(values)[k]), _bits(alone))


@pytest.mark.parametrize("k_rows", [None, 1, 3])
def test_eval_grid_equals_out_of_place_loop_past_the_double_range(k_rows):
    # row 0 leaves the double range on its last add on the unit circle,
    # row 1 (scaled by 1e300) on the circle of radius 1e200; row 2 is 1 on
    # every circle, though R^k leaves the double range there: R^k is never
    # formed alone, so no zero coefficient meets an infinite power
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
    coeffs[0] = 0.0
    coeffs[0, :2] = [1.5e308, 1e308]
    coeffs[1] *= 1e300
    coeffs[2] = 0.0
    coeffs[2, 0] = 1.0
    coeffs = coeffs[0] if k_rows is None else coeffs[:k_rows]
    circles = [DiskSpec(1.0, 8), DiskSpec(1e200, 8), DiskSpec(0.5, 8)]
    with np.errstate(all="ignore"):
        values = evaluate_grid(coeffs, circles).reshape(-1, 3, 8)
        reference = _horner(coeffs, _points(circles)).reshape(-1, 3, 8)
    assert np.isinf(reference).any()
    # every circle where the loop leaves the double range does too
    overflow = ~np.isfinite(reference).all(axis=-1)
    assert (~np.isfinite(values).all(axis=-1))[overflow].all()
    if k_rows == 3:
        assert overflow[1].tolist() == [False, True, False]
        assert (values[2] == 1).all()
