"""Truncated Taylor-series calculus for entire functions.

A :class:`TaylorSeries` stores the coefficients c_0..c_N of an expansion
about the origin together with ``valid_order``, the number of leading
coefficients still considered trustworthy after lossy operations (shifts
in particular degrade the tail).  All operations are pure and all values
immutable, so series can be shared freely across threads.
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
    valid_order: int
    label: str = ""

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyCoefficients("coefficient list must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise NonFiniteCoefficient("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if not (1 <= self.valid_order <= arr.size):
            raise ValueError(
                f"valid_order {self.valid_order} out of range 1..{arr.size}"
            )

    def __len__(self) -> int:
        return self.coeffs.size

    @property
    def degree_cap(self) -> int:
        return self.coeffs.size - 1


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
    """Build a fully-trusted series from explicit coefficients."""
    arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if arr.size == 0:
        raise EmptyCoefficients("coefficient list must be non-empty")
    return TaylorSeries(arr, valid_order=arr.size, label=label)


def zero_series(n_terms: int = 1, label: str = "") -> TaylorSeries:
    return make_series(np.zeros(max(1, n_terms)), label=label)


def gaussian_series(n_terms: int = DEFAULT_ORDER, scale: complex = 0.5) -> TaylorSeries:
    """Truncation of exp(scale * z^2); scale=0.5 gives exp(z^2/2)."""
    c = np.zeros(n_terms, dtype=np.complex128)
    term = 1.0 + 0j
    for k in range(0, (n_terms + 1) // 2):
        c[2 * k] = term
        term *= scale / (k + 1)
    return TaylorSeries(c, valid_order=n_terms, label=f"exp({scale}*z^2)")


def exponential_series(lam: complex, n_terms: int = DEFAULT_ORDER) -> TaylorSeries:
    """Truncation of exp(lam * z)."""
    c = np.empty(n_terms, dtype=np.complex128)
    c[0] = 1.0
    for n in range(1, n_terms):
        c[n] = c[n - 1] * lam / n
    return TaylorSeries(c, valid_order=n_terms, label=f"exp({lam}*z)")


def translate(f: TaylorSeries, lam: complex) -> TaylorSeries:
    """Shifted series f(z + lam) by binomial resummation; ``valid_order``
    is carried over from f."""
    lam = complex(lam)
    if lam == 0:
        return f
    return TaylorSeries(
        translate_kernel(f.coeffs, lam), valid_order=f.valid_order, label=f.label
    )


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
    valid = min(s.valid_order for _, s in terms)
    out = np.zeros(n_len, dtype=np.complex128)
    for w, s in terms:
        out += complex(w) * s.coeffs[:n_len]
    return TaylorSeries(out, valid_order=min(valid, n_len))


def multiply_by_poly(f: TaylorSeries, p, max_len: int | None = None) -> TaylorSeries:
    """Product with a polynomial given by its coefficient list.

    The degree grows by deg(p); pass ``max_len`` to truncate at a working
    cap.  valid_order is preserved on the overlap (coefficient n of the
    product only involves c_{n-deg(p)}..c_n).
    """
    parr = np.atleast_1d(np.asarray(p, dtype=np.complex128))
    if parr.size == 0:
        raise EmptyCoefficients("polynomial multiplier must be non-empty")
    out = np.convolve(f.coeffs, parr)
    if max_len is not None:
        out = out[:max_len]
    return TaylorSeries(
        out,
        valid_order=min(f.valid_order, out.size),
        label=f.label,
    )
