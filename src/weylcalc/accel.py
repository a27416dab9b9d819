"""Coefficient-level hot loop, vectorized with numpy.

The binomial resummation behind series translation is a product: with
the weight matrix w[j, m] = C(m + j, m) c_{m+j} (zero where m + j >= N),
the coefficients of f(z + lambda) are the row (1, lambda, ..., lambda^(N-1))
times w, O(N^2) per shift.  The binomials are exact integers rounded
once, one table per length N, kept across calls.  A 1-d array of K
shifts is one stacked ``np.matmul`` of ``(K, 1, N)`` power rows with w,
one matrix-vector product per shift, so a batched row holds the same
bits as a one-shift batch whatever the batch and the BLAS thread
count (a single ``(K, N) @ (N, N)`` product would let BLAS split the
sums by the batch's shape).  Values on circles are inverse FFTs, in
:func:`weylcalc.series.evaluate_grid`.
"""

from __future__ import annotations

import functools

import numpy as np


def backend() -> str:
    """Name of the implementation of the hot loops."""
    return "numpy"


@functools.lru_cache(maxsize=16)
def _binomials(n_len: int) -> np.ndarray:
    """C(m + j, m) at [j, m], zero where m + j >= N, ``(N, N)``: Pascal's
    rows in exact integers, each entry rounded once to a double."""
    table = np.zeros((n_len, n_len))
    row = np.ones(1, dtype=object)
    for n in range(n_len):
        m = np.arange(n + 1)
        table[n - m, m] = row
        row = np.append(row, 0) + np.append(0, row)
    table.flags.writeable = False
    return table


def _weights(coeffs: np.ndarray) -> np.ndarray:
    """w[j, m] = C(m + j, m) c_{m+j}, zero where m + j >= N, ``(N, N)``."""
    n_len = coeffs.shape[0]
    j, m = np.ogrid[:n_len, :n_len]
    padded = np.zeros(2 * n_len - 1, dtype=np.complex128)
    padded[:n_len] = coeffs
    return _binomials(n_len) * padded[j + m]


def translate_kernel(coeffs: np.ndarray, lams) -> np.ndarray:
    """Binomial resummation of a coefficient vector shifted by each of a
    1-d array of K shifts: a ``(K, N)`` matrix, one row per shift."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    lams = np.asarray(lams, dtype=np.complex128)
    lam_pow = lams[:, None, None] ** np.arange(coeffs.shape[0])
    return np.matmul(lam_pow, _weights(coeffs))[:, 0]
