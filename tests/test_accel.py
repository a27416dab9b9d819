"""The numpy hot kernels behind series translation and evaluation."""

import numpy as np
import pytest

from weylcalc import accel


def test_translate_kernel_wrapper_types():
    out = accel.translate_kernel(np.array([1.0, 1.0]), 0.5)
    assert out.dtype == np.complex128
    # (z + 0.5) shifted: coefficients [1.5, 1]
    assert np.allclose(out, [1.5, 1.0])


def test_active_backend_is_reported():
    assert accel.backend() == "numpy"


def _bits(a):
    return np.ascontiguousarray(a).view(np.float64)


def test_kernels_take_a_batch():
    coeffs = np.arange(5.0)
    lams = np.array([0.5, 1j, -2.0])
    assert accel.translate_kernel(coeffs, 0.5).shape == (5,)
    assert accel.translate_kernel(coeffs, lams).shape == (3, 5)
    pts = np.linspace(0.0, 1.0, 7)
    assert accel.eval_grid(coeffs, pts).shape == (7,)
    assert accel.eval_grid(np.ones((3, 5)), pts).shape == (7, 3)


def _shift_one(coeffs, lam):
    # the one-shift resummation loop on 1-d slices, the reference
    n_len = coeffs.size
    out = np.empty(n_len, dtype=np.complex128)
    lam_pow = complex(lam) ** np.arange(n_len)
    n = np.arange(n_len, dtype=np.float64)
    binom = np.ones(n_len)
    for m in range(n_len):
        out[m] = (binom[m:] * coeffs[m:] * lam_pow[: n_len - m]).sum()
        binom = binom * (n - m) / (m + 1)
    return out


@pytest.mark.parametrize("n_len", [1, 2, 17, 128, 160])
def test_batched_translate_rows_equal_single_shifts(n_len):
    rng = np.random.default_rng(n_len)
    coeffs = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
    lams = 8 * (rng.random(12) - 0.5) + 8j * (rng.random(12) - 0.5)
    rows = accel.translate_kernel(coeffs, lams)
    for row, lam in zip(rows, lams):
        assert np.array_equal(_bits(row), _bits(_shift_one(coeffs, lam)))
        assert np.array_equal(_bits(accel.translate_kernel(coeffs, lam)), _bits(row))


@pytest.mark.parametrize("n_len", [1, 2, 17, 128])
def test_eval_grid_matrix_equals_its_rows(n_len):
    rng = np.random.default_rng(n_len)
    rows = rng.standard_normal((9, n_len)) + 1j * rng.standard_normal((9, n_len))
    pts = 1.3 * np.exp(2j * np.pi * rng.random(40))
    values = accel.eval_grid(rows, pts)
    for k, row in enumerate(rows):
        assert np.array_equal(_bits(values[:, k]), _bits(accel.eval_grid(row, pts)))


@pytest.mark.parametrize("n_len", [1, 2, 17, 128])
def test_eval_grid_equals_polyval(n_len):
    rng = np.random.default_rng(n_len)
    coeffs = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
    pts = 1.3 * np.exp(2j * np.pi * rng.random(40))
    assert np.array_equal(
        _bits(accel.eval_grid(coeffs, pts)), _bits(np.polyval(coeffs[::-1], pts))
    )


def _eval_grid_reference(coeffs, points):
    # the out-of-place Horner loop on a (P, K) array, the reference
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.complex128)
    x = points if coeffs.ndim == 1 else points[:, None]
    y = np.zeros(points.shape + coeffs.shape[:-1], dtype=np.complex128)
    for pv in coeffs.T[::-1]:
        y = y * x + pv
    return y


def _same_values(a, b):
    # bit for bit, but for the sign and payload of a NaN
    a, b = _bits(a), _bits(b)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


@pytest.mark.parametrize("k_rows", [None, 1, 2, 9])
@pytest.mark.parametrize("n_len", [1, 2, 17, 128])
@pytest.mark.parametrize("n_points", [1, 2, 3, 40])
def test_eval_grid_equals_out_of_place_loop(k_rows, n_len, n_points):
    # None: one 1-d coefficient vector
    rng = np.random.default_rng([n_len, n_points, k_rows or 0])
    shape = (n_len,) if k_rows is None else (k_rows, n_len)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pts = 1.3 * np.exp(2j * np.pi * rng.random(n_points))
    values = accel.eval_grid(coeffs, pts)
    assert _same_values(values, _eval_grid_reference(coeffs, pts))
    if k_rows is not None:
        assert values.T.flags.c_contiguous  # the (P, K) view of a (K, P) buffer


@pytest.mark.parametrize("k_rows", [None, 1, 4])
def test_eval_grid_equals_out_of_place_loop_at_signed_zeros(k_rows):
    rng = np.random.default_rng(7)
    shape = (17,) if k_rows is None else (k_rows, 17)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[..., :2] = [complex(-0.0, -0.0), -1.0]  # the value at 0 is a signed zero
    pts = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1e-310, 1.5])
    values = accel.eval_grid(coeffs, pts)
    assert _same_values(values, _eval_grid_reference(coeffs, pts))
    assert len({v.tobytes() for v in values[:4].ravel()}) > 1


@pytest.mark.parametrize("k_rows", [None, 1, 3])
def test_eval_grid_equals_out_of_place_loop_past_the_double_range(k_rows):
    # row 0 leaves the double range on its last add at 1.0 (inf), row 1
    # inside the loop at 1e200j (nan)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
    coeffs[0] = 0.0
    coeffs[0, :2] = [1.5e308, 1e308]
    coeffs[1] *= 1e300
    coeffs = coeffs[0] if k_rows is None else coeffs[:k_rows]
    pts = np.array([1.0, 1e200j, 0.5])
    with np.errstate(all="ignore"):
        values = accel.eval_grid(coeffs, pts)
        expected = _eval_grid_reference(coeffs, pts)
    assert np.isinf(expected).any()
    assert np.isnan(expected).any() == (k_rows == 3)
    assert _same_values(values, expected)
