"""Coefficient-level hot loops, vectorized with numpy.

The two kernels that dominate runtime are the binomial resummation behind
series translation (O(N^2) per shift) and batch evaluation of a truncated
series on collocation grids.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the implementation of the hot loops."""
    return "numpy"


def translate_kernel(coeffs: np.ndarray, lam: complex):
    """Binomial resummation of a coefficient vector shifted by ``lam``.

    Returns ``(out, mags)`` where ``out[m]`` is the shifted coefficient and
    ``mags[m]`` the sum of absolute contributing terms (cancellation gauge).
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    n_len = coeffs.shape[0]
    out = np.empty_like(coeffs)
    mags = np.empty(n_len, dtype=np.float64)
    lam_pow = complex(lam) ** np.arange(n_len)
    n = np.arange(n_len, dtype=np.float64)
    binom = np.ones(n_len)  # C(n, m) for the current m
    for m in range(n_len):
        # b_m = sum_{n>=m} C(n, m) c_n lam^(n-m)
        terms = binom[m:] * coeffs[m:] * lam_pow[: n_len - m]
        out[m] = terms.sum()
        mags[m] = np.abs(terms).sum()
        binom = binom * (n - m) / (m + 1)  # C(n, m+1) = C(n, m) (n-m)/(m+1)
    return out, mags


def eval_grid(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the truncated series at every point of ``points``."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.complex128)
    return np.polyval(coeffs[::-1], points)
