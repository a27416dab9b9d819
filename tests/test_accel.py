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
