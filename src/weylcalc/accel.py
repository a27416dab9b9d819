"""Coefficient-level hot loop, vectorized with numpy.

The binomial resummation behind series translation (one loop of N steps
per batch of K shifts, O(K N^2) arithmetic) takes a batch at once: a 1-d
array of shifts gives one row each, formed with the same products summed
in the same order as a single shift, so a batched row holds the same bits
as the one-at-a-time result.  Values on circles are inverse FFTs, in
:func:`weylcalc.series.evaluate_grid`.
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
