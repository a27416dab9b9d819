"""Coefficient-level hot loops, vectorized with numpy.

The two kernels that dominate runtime are the binomial resummation behind
series translation (one loop of N steps per batch of K shifts, O(K N^2)
arithmetic) and Horner evaluation of truncated series on collocation
grids, in place.  Both take a batch at once: a 1-d array of shifts, or a
``(K, N)`` matrix of coefficient rows.  Each row is formed with the same
products summed in the same order as a single series, so a batched row
holds the same bits as the one-at-a-time result.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the implementation of the hot loops."""
    return "numpy"


def translate_kernel(coeffs: np.ndarray, lam) -> np.ndarray:
    """Binomial resummation of a coefficient vector shifted by ``lam``.

    A scalar ``lam`` gives the ``(N,)`` shifted coefficients; a 1-d array
    of K shifts gives a ``(K, N)`` matrix, one row per shift.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    lam = np.asarray(lam, dtype=np.complex128)
    n_len = coeffs.shape[0]
    out = np.empty((n_len,) + lam.shape, dtype=np.complex128)  # row m: b_m per shift
    lam_pow = lam[..., None] ** np.arange(n_len)
    n = np.arange(n_len, dtype=np.float64)
    binom = np.ones(n_len)  # C(n, m) for the current m
    for m in range(n_len):
        # b_m = sum_{n>=m} C(n, m) c_n lam^(n-m)
        out[m] = (binom[m:] * coeffs[m:] * lam_pow[..., : n_len - m]).sum(-1)
        binom = binom * (n - m) / (m + 1)  # C(n, m+1) = C(n, m) (n-m)/(m+1)
    return np.ascontiguousarray(out.T)


def eval_grid(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate truncated series at every point of ``points`` by Horner.

    ``(N,)`` coefficients give the ``(P,)`` values; a ``(K, N)`` matrix of
    coefficient rows gives ``(P, K)``, one column per row: the transposed
    view of a ``(K, P)`` buffer that every step updates in place, with the
    products and sums of one series' loop.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.complex128)
    y = np.zeros(coeffs.shape[:-1] + points.shape, dtype=np.complex128)
    # numpy's SIMD loop may fuse a complex product's real products; it skips
    # one value written in place or broadcast, so one value goes out of place
    x, out = (points, y) if y.size != 1 else (points.reshape(y.shape), None)
    for pv in coeffs.T[::-1, ..., None]:
        y = np.multiply(y, x, out=out)
        np.add(y, pv, out=y)
    return y.T
