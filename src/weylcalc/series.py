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


def gaussian_series(n_terms: int = DEFAULT_ORDER, scale: complex = 0.5) -> TaylorSeries:
    """Truncation of exp(scale * z^2); scale=0.5 gives exp(z^2/2)."""
    c = np.zeros(n_terms, dtype=np.complex128)
    term = 1.0 + 0j
    for k in range(0, (n_terms + 1) // 2):
        c[2 * k] = term
        term *= scale / (k + 1)
    return TaylorSeries(c, f"exp({scale}*z^2)")


def exponential_series(lam: complex, n_terms: int = DEFAULT_ORDER) -> TaylorSeries:
    """Truncation of exp(lam * z)."""
    c = np.empty(n_terms, dtype=np.complex128)
    c[0] = 1.0
    for n in range(1, n_terms):
        c[n] = c[n - 1] * lam / n
    return TaylorSeries(c, f"exp({lam}*z)")


def translate(f: TaylorSeries, lam: complex) -> TaylorSeries:
    """Shifted series f(z + lam) by binomial resummation."""
    lam = complex(lam)
    if lam == 0:
        return f
    return TaylorSeries(translate_kernel(f.coeffs, lam), f.label)


def evaluate(f: TaylorSeries, z: complex) -> complex:
    """Value of the truncated polynomial at z."""
    return complex(eval_grid(f.coeffs, np.array([z], dtype=np.complex128))[0])


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
