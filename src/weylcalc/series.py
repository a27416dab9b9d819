"""Truncated Taylor-series calculus for entire functions.

A :class:`TaylorSeries` stores the coefficients c_0..c_N of an expansion
about the origin: the truncated polynomial is the representative, and how
far it is from the entire function is a question about the tail, not a
field of the series.  All operations are pure and all values immutable,
so series can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accel import eval_grid, translate_kernel
from .errors import (
    EmptyCoefficients,
    EmptyCombination,
    InvalidDisk,
    NonFiniteCoefficient,
)

#: default number of retained coefficients for transcendental truncations
DEFAULT_ORDER = 128


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power-series representative of an entire function."""

    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyCoefficients("coefficient list must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise NonFiniteCoefficient("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class DiskSpec:
    """Closed disk |z| <= radius with a boundary sample count."""

    radius: float = 1.0
    grid_points: int = 64

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidDisk(f"radius must be positive, got {self.radius}")
        if self.grid_points < 8:
            raise InvalidDisk(f"grid_points must be >= 8, got {self.grid_points}")

    def boundary(self) -> np.ndarray:
        theta = 2 * np.pi * np.arange(self.grid_points) / self.grid_points
        return self.radius * np.exp(1j * theta)


UNIT_DISK = DiskSpec(1.0, 64)


def make_series(coeffs, label: str = "") -> TaylorSeries:
    """Build a series from explicit coefficients."""
    arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if arr.size == 0:
        raise EmptyCoefficients("coefficient list must be non-empty")
    return TaylorSeries(arr, label)


def gaussian_series(n_terms: int = DEFAULT_ORDER) -> TaylorSeries:
    """Truncation of exp(z^2/2), the kernel generator of D - zI."""
    c = np.zeros(n_terms, dtype=np.complex128)
    term = 1.0 + 0j
    for k in range(0, (n_terms + 1) // 2):
        c[2 * k] = term
        term *= 0.5 / (k + 1)
    return TaylorSeries(c, "exp(0.5*z^2)")


def unfused_product(x, y):
    """Elementwise complex product x * y with every real product rounded
    on its own, as Python and numpy scalars round it; numpy's array
    multiply may fuse them, which moves the last bit."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    re = x.real * y.real - x.imag * y.imag
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = x.real * y.imag + x.imag * y.real
    return out[()]


def exponential_rows(lams, n_terms: int = DEFAULT_ORDER) -> np.ndarray:
    """Coefficients of exp(lam * z) for a 1-d array of lams, ``(K, N)``,
    by c[n] = c[n-1] lam / n on every lam at once.  No row is checked
    finite here."""
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    rows = np.empty((lams.size, n_terms), dtype=np.complex128)
    rows[:, 0] = 1.0
    for n in range(1, n_terms):
        rows[:, n] = unfused_product(rows[:, n - 1], lams) / n
    return rows


def translate(f: TaylorSeries, lam: complex) -> TaylorSeries:
    """Shifted series f(z + lam) by binomial resummation."""
    lam = complex(lam)
    if lam == 0:
        return f
    return TaylorSeries(translate_kernel(f.coeffs, lam), f.label)


def evaluate_grid(f: TaylorSeries, points: np.ndarray) -> np.ndarray:
    return eval_grid(f.coeffs, points)


def disk_sup_norm(f: TaylorSeries, disk: DiskSpec = UNIT_DISK) -> float:
    """Max modulus over the boundary grid.

    The truncated series is a polynomial, so by the maximum-modulus
    principle boundary sampling bounds the whole disk up to grid
    resolution.
    """
    return float(np.abs(eval_grid(f.coeffs, disk.boundary())).max())


def linear_combine(terms) -> TaylorSeries:
    """Weighted sum of (weight, series) pairs on their common range."""
    terms = list(terms)
    if not terms:
        raise EmptyCombination("linear_combine needs at least one term")
    n_len = min(len(s) for _, s in terms)
    out = np.zeros(n_len, dtype=np.complex128)
    for w, s in terms:
        out += complex(w) * s.coeffs[:n_len]
    return TaylorSeries(out)


def multiply_by_poly(f: TaylorSeries, p) -> TaylorSeries:
    """Product with a polynomial given by its coefficient list; the degree
    grows by deg(p)."""
    parr = np.atleast_1d(np.asarray(p, dtype=np.complex128))
    if parr.size == 0:
        raise EmptyCoefficients("polynomial multiplier must be non-empty")
    return TaylorSeries(np.convolve(f.coeffs, parr), f.label)
