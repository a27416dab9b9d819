"""Constant-coefficient operator algebra on monomial coefficients.

Three operator kinds:

* :class:`ConvolutionOperator` -- M = sum_k d_k D^k with characteristic
  polynomial L(lambda) = sum_k d_k lambda^k (finite order only);
* :class:`WeylOperator` -- T = M - a z I, the solutions of the commutation
  relation [T, D] = a I;
* :class:`CompositeOperator` -- a polynomial L applied to a Weyl operator.

Every action of these operators goes through one banded core.  On the
monomial basis T is stored by its diagonals: superdiagonal k carries
d_k n (n-1)...(n-k+1) on column n and the subdiagonal carries -a.  L(T)
is composed from them by Horner's scheme, and a commutator is two
compositions and a subtraction.  The same numpy code runs on complex128
arrays and on object arrays of exact Gaussian integers at one power-of-two
scale: operator and series coefficients are doubles, hence dyadic
rationals, so commutators and operator powers are formed exactly and
rounded once.  Truncated-series application (differentiation included),
monomial matrices, commutators, the ladder check and the direct orbit
route all read the core; the decomposition diagnostic recovers (a, M)
from a monomial matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCoefficients,
    InconsistentConvolution,
    KernelResidualTooLarge,
    NotWeyl,
    OrderExhausted,
    ZeroOperator,
)
from .series import TaylorSeries, disk_sup_norm, linear_combine

#: dense monomial matrices are capped at this degree
N_CAP_MAX = 512

#: tolerance for the decomposition diagnostic (off-diagonal max and
#: diagonal spread are checked separately so "not Weyl" can be told apart
#: from "numerically noisy Weyl")
DECOMPOSE_TOL = 1e-9

#: kernel membership threshold on the unit-disk sup norm of T f
KERNEL_MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class ConvolutionOperator:
    """M = sum_k d_k D^k with at least one nonzero coefficient."""

    d: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.d, dtype=np.complex128))
        if arr.size == 0:
            raise EmptyCoefficients("convolution coefficients must be non-empty")
        if not np.any(arr):
            raise ZeroOperator("all convolution coefficients are zero")
        arr.setflags(write=False)
        object.__setattr__(self, "d", arr)

    @property
    def order(self) -> int:
        return int(np.nonzero(self.d)[0][-1])

    def characteristic(self, lam):
        """L(lambda) = sum_k d_k lambda^k, elementwise on an array."""
        return np.polyval(self.d[::-1], lam)


@dataclass(frozen=True)
class WeylOperator:
    """T = M - a z I.  a = 0 degenerates to the convolution operator M."""

    m: ConvolutionOperator
    a: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))


@dataclass(frozen=True)
class CompositeOperator:
    """L(T) for a polynomial L given by its coefficient list ``l``."""

    base: WeylOperator
    l: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.l, dtype=np.complex128))
        if arr.size == 0:
            raise EmptyCoefficients("composite polynomial must be non-empty")
        arr.setflags(write=False)
        object.__setattr__(self, "l", arr)

    @property
    def poly_degree(self) -> int:
        nz = np.nonzero(self.l)[0]
        return int(nz[-1]) if nz.size else 0

    def eigenvalue(self, t_eigenvalue):
        """L evaluated at an eigenvalue of the base operator, elementwise
        on an array."""
        return np.polyval(self.l[::-1], t_eigenvalue)


@dataclass(frozen=True)
class OperatorMatrix:
    """Action on the monomial basis: column n = coefficients of Op[z^n]."""

    entries: np.ndarray
    n_cap: int


def diff_op(order: int = 1) -> ConvolutionOperator:
    """The pure differentiation operator D^order."""
    d = np.zeros(order + 1, dtype=np.complex128)
    d[order] = 1.0
    return ConvolutionOperator(d)


# ---------------------------------------------------------------------------
# the banded core
#
# An operator on the monomials z^0..z^{size-1} is stored as a dict
# {offset s: values}: values[j] is the coefficient of z^{j-s} in Op[z^j].
# Entries whose row falls outside 0..size-1 are never read, so a dict is
# the size x size section of the operator, and composing sections drops
# the tail after every factor, as a fixed-length coefficient vector does.


class _Gauss:
    """Exact Gaussian integer, the element type of the exact core.

    The attribute names match ``int.real`` and ``int.imag``, so the integer
    zeros that numpy puts in object arrays read the same way.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real = real
        self.imag = imag

    def __bool__(self):
        return bool(self.real or self.imag)

    def __neg__(self):
        return _Gauss(-self.real, -self.imag)

    def __add__(self, other):
        if not isinstance(other, (int, _Gauss)):
            return NotImplemented
        return _Gauss(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, (int, _Gauss)):
            return NotImplemented
        return _Gauss(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__


def to_gaussian(values):
    """Gaussian integers G (object array) and e >= 0 with values == G / 2**e.

    Every double is a dyadic rational, so the conversion is exact.
    """
    parts = [
        float(x).as_integer_ratio()
        for z in np.atleast_1d(np.asarray(values, dtype=np.complex128))
        for x in (z.real, z.imag)
    ]
    e = max(den.bit_length() for _, den in parts) - 1
    ints = [num << (e + 1 - den.bit_length()) for num, den in parts]
    out = np.empty(len(ints) // 2, dtype=object)
    out[:] = [_Gauss(re, im) for re, im in zip(ints[0::2], ints[1::2])]
    return out, e


def _quotient(num: int, den: int) -> float:
    try:
        return num / den  # correctly rounded
    except OverflowError:
        # an int past the double range has no float to copy a sign from
        return math.inf if num > 0 else -math.inf


def from_gaussian(re, im, e: int) -> np.ndarray:
    """(re + i im) / 2**e for integer sequences re, im, each part rounded once."""
    den = 1 << e
    return np.array(
        [complex(_quotient(x, den), _quotient(y, den)) for x, y in zip(re, im)],
        dtype=np.complex128,
    )


def _polynomial_form(op):
    """(d, a, l, rise) with op = L(T) for T = sum_k d_k D^k - a z I.

    ``rise`` bounds the degree growth: 0 for a convolution operator, deg L
    otherwise.
    """
    one = np.array([0.0, 1.0], dtype=np.complex128)
    if isinstance(op, ConvolutionOperator):
        return op.d, 0j, one, 0
    if isinstance(op, WeylOperator):
        return op.m.d, op.a, one, 1
    if isinstance(op, CompositeOperator):
        q = op.poly_degree
        return op.base.m.d, op.base.a, op.l[: q + 1], q
    raise TypeError(f"unsupported operator type {type(op).__name__}")


def _compose(x: dict, y: dict) -> dict:
    """Section of x y (y applied first)."""
    size = next(iter(y.values())).size
    out: dict = {}
    for sy, vy in y.items():
        for sx, vx in x.items():
            # column j of y lands on row j - sy, then on row j - sy - sx
            lo = max(0, sy, sx + sy)
            hi = size + min(0, sy, sx + sy)
            if lo >= hi:
                continue
            acc = out.get(sx + sy)
            if acc is None:
                acc = out[sx + sy] = np.zeros(size, dtype=vy.dtype)
            acc[lo:hi] += vx[lo - sy : hi - sy] * vy[lo:hi]
    return out


def _bands(op, size: int, exact: bool):
    """Section of op on z^0..z^{size-1} and its scale exponent e.

    The operator equals the section divided by 2**e.  Rounded: complex128
    values and e = 0.  Exact: Gaussian integers, with T scaled to
    T' = 2**s T and 2**(t + s q) L(T) = sum_k (2**t l_k) 2**(s (q-k)) T'^k.
    """
    d, a, l, _ = _polynomial_form(op)
    q = l.size - 1
    if exact:
        dtype = object
        coeffs, s = to_gaussian(np.append(d, -a))
        d, minus_a = coeffs[:-1], coeffs[-1]
        l, t = to_gaussian(l)
        l = [c * (1 << (s * (q - k))) for k, c in enumerate(l)]
        scale = t + s * q
    else:
        dtype = np.complex128
        minus_a = -a
        scale = 0
    col = np.arange(size, dtype=object if exact else np.float64)
    base = {}
    fall = np.ones(size, dtype=col.dtype)  # j (j-1) ... (j-k+1)
    for k, dk in enumerate(d):
        if dk:
            base[k] = fall * dk
        fall = fall * (col - k)
    if minus_a:
        base[-1] = np.full(size, minus_a, dtype=dtype)
    section = {0: np.full(size, l[q], dtype=dtype)}
    for k in range(q - 1, -1, -1):
        section = _compose(base, section)
        if l[k]:
            section[0] = section.get(0, np.zeros(size, dtype=dtype)) + l[k]
    return section, scale


def _act(section: dict, x: np.ndarray) -> np.ndarray:
    """Image of the coefficient vector x under the section."""
    size = x.size
    out = np.zeros(size, dtype=x.dtype)
    for s, v in section.items():
        lo, hi = max(0, s), size + min(0, s)
        out[lo - s : hi - s] += v[lo:hi] * x[lo:hi]
    return out


def _dense(section: dict, rows: int, cols: int) -> np.ndarray:
    """The section's first ``cols`` columns and ``rows`` rows as a matrix."""
    entries = np.zeros((rows, cols), dtype=np.complex128)
    for s, v in section.items():
        j = np.arange(max(0, s), min(cols, rows + s))
        entries[j - s, j] = v[j]
    return entries


def op_on_poly(op, p) -> np.ndarray:
    """Image of the polynomial p (coefficient array) under op, untruncated."""
    p = np.atleast_1d(np.asarray(p, dtype=np.complex128))
    x = np.zeros(p.size + _polynomial_form(op)[3], dtype=np.complex128)
    x[: p.size] = p
    return _act(_bands(op, x.size, exact=False)[0], x)


def exact_power(op, coeffs, n: int):
    """op^n on the fixed-length coefficient vector ``coeffs``, exactly.

    The tail beyond ``len(coeffs)`` is dropped after every factor of T.
    Returns Gaussian integers G and e with the image equal to G / 2**e.
    """
    section, scale = _bands(op, len(coeffs), exact=True)
    g, e = to_gaussian(coeffs)
    for _ in range(n):
        g = _act(section, g)
    return g, e + n * scale


def matrix_on_monomials(op, n_cap: int) -> OperatorMatrix:
    """Exact action on z^0..z^n_cap as a dense matrix."""
    if not (1 <= n_cap <= N_CAP_MAX):
        raise ValueError(f"n_cap must be in 1..{N_CAP_MAX}, got {n_cap}")
    rows = n_cap + 1 + max(1, _polynomial_form(op)[3])
    section, _ = _bands(op, rows, exact=False)
    return OperatorMatrix(_dense(section, rows, n_cap + 1), n_cap)


def commutator_matrix(op_a, op_b, n_cap: int) -> OperatorMatrix:
    """Matrix of op_a op_b - op_b op_a on monomials of degree <= n_cap - 1.

    Composed in exact Gaussian-integer arithmetic (the inputs are dyadic
    rationals) and rounded once per entry, so algebraic identities like
    [M - a z I, D] = a I come out bit-exact instead of drowning in the
    factorial growth of the intermediate compositions.  One degree is
    sacrificed to the composition, so the stored cap is n_cap - 1.
    """
    if not (2 <= n_cap <= N_CAP_MAX):
        raise ValueError(f"n_cap must be in 2..{N_CAP_MAX}, got {n_cap}")
    rise = _polynomial_form(op_a)[3] + _polynomial_form(op_b)[3]
    rows = n_cap + max(1, rise)
    sec_a, e_a = _bands(op_a, rows, exact=True)
    sec_b, e_b = _bands(op_b, rows, exact=True)
    comm = _compose(sec_a, sec_b)
    for s, v in _compose(sec_b, sec_a).items():
        comm[s] = comm.get(s, 0) - v
    rounded = {
        s: from_gaussian([x.real for x in v], [x.imag for x in v], e_a + e_b)
        for s, v in comm.items()
    }
    return OperatorMatrix(_dense(rounded, rows, n_cap), n_cap - 1)


# ---------------------------------------------------------------------------
# application to truncated series


def _series_image(op, f: TaylorSeries, drop: int) -> TaylorSeries:
    """op f on the coefficients that do not reach past the truncation.

    ``drop`` is the number of derivative levels op takes; the image is
    that many coefficients shorter than f.
    """
    if drop >= len(f):
        raise OrderExhausted(
            f"operator needs {drop} derivative levels, series has "
            f"{len(f)} coefficients"
        )
    return TaylorSeries(op_on_poly(op, f.coeffs)[: len(f) - drop])


def apply_conv(m: ConvolutionOperator, f: TaylorSeries) -> TaylorSeries:
    """sum_k d_k f^(k)."""
    return _series_image(m, f, m.order)


def differentiate(f: TaylorSeries, k: int = 1) -> TaylorSeries:
    """k-th derivative f^(k), the series image of D^k."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    return apply_conv(diff_op(k), f)


def apply_weyl(t: WeylOperator, f: TaylorSeries) -> TaylorSeries:
    """(M - a z I) f on the overlapping coefficient range."""
    return _series_image(t, f, t.m.order)


def apply_composite(c: CompositeOperator, f: TaylorSeries) -> TaylorSeries:
    """L(T) f, a polynomial of degree q in T taking q times the order of M."""
    return _series_image(c, f, c.poly_degree * c.base.m.order)


def scalar_identity_diagnostics(mat: OperatorMatrix):
    """Test a monomial matrix against a * I.

    Returns (a_estimate, offdiag_max, diag_spread) where the estimate is
    the mean diagonal of the square top block and both deviations cover
    the full stored matrix including overflow rows.
    """
    e = mat.entries
    ncols = e.shape[1]
    diag = np.diagonal(e[:ncols, :ncols])
    a_est = complex(diag.mean())
    dev = e.copy()
    dev[np.arange(ncols), np.arange(ncols)] -= a_est
    offdiag_max = float(np.abs(dev).max()) if dev.size else 0.0
    diag_spread = float(np.abs(diag - a_est).max())
    return a_est, offdiag_max, diag_spread


# ---------------------------------------------------------------------------
# ladder identity


def ladder_check(t: WeylOperator, f: TaylorSeries, n_max: int):
    """Unit-disk residuals of T f^(n) = a n f^(n-1) for n = 0..n_max.

    Index 0 holds the kernel residual of f itself, which must not exceed
    KERNEL_MEMBERSHIP_TOL.
    """
    if n_max + t.m.order >= len(f):
        raise OrderExhausted(
            f"ladder to n={n_max} needs more than {n_max + t.m.order} "
            f"coefficients"
        )
    base = disk_sup_norm(apply_weyl(t, f))
    if base > KERNEL_MEMBERSHIP_TOL:
        raise KernelResidualTooLarge(
            f"kernel residual {base:.3e} exceeds {KERNEL_MEMBERSHIP_TOL:.1e}"
        )
    residuals = [base]
    for n in range(1, n_max + 1):
        lhs = apply_weyl(t, differentiate(f, n))
        rhs = differentiate(f, n - 1)
        residuals.append(
            disk_sup_norm(linear_combine([(1.0, lhs), (-t.a * n, rhs)]))
        )
    return residuals


# ---------------------------------------------------------------------------
# decomposition diagnostic


def _commutator_with_diff(mat: OperatorMatrix) -> OperatorMatrix:
    """[Op, D] computed from the monomial matrix alone.

    [Op, D] z^n = n Op[z^{n-1}] - D(Op[z^n]); both terms are available from
    the stored columns.
    """
    e = mat.entries
    rows, cols = e.shape
    out = np.zeros((rows, cols), dtype=np.complex128)
    out[:, 1:] += e[:, :-1] * np.arange(1, cols)
    out[:-1, :] -= e[1:, :] * np.arange(1, rows)[:, None]
    return OperatorMatrix(out, mat.n_cap)


def decompose(mat: OperatorMatrix):
    """Recover (a, M) from the monomial matrix of an unknown operator.

    Raises NotWeyl when [Op, D] is not a scalar multiple of the identity
    within the tolerance, and InconsistentConvolution when the residual
    operator Op + a z I does not act with constant coefficients.

    The tolerance is ``max(DECOMPOSE_TOL, noise floor)``, where
    the floor is the cancellation error of a genuinely Weyl matrix whose
    entries (of size d_k n!/(n-k)!) were themselves rounded to doubles:
    below that floor non-Weyl-ness is not detectable from the matrix.
    """
    comm = _commutator_with_diff(mat)
    a_est, offdiag_max, diag_spread = scalar_identity_diagnostics(comm)
    scale = float(np.abs(mat.entries).max())
    noise_floor = 8 * np.finfo(float).eps * (mat.n_cap + 1) * scale
    tol = max(DECOMPOSE_TOL, noise_floor)
    if offdiag_max > tol or diag_spread > tol:
        raise NotWeyl(
            f"[Op, D] is not a scalar identity: off-diagonal max "
            f"{offdiag_max:.3e}, diagonal spread {diag_spread:.3e}",
            offdiag_max=offdiag_max,
            diag_spread=diag_spread,
        )
    n_cap = mat.n_cap
    e = mat.entries
    # M = Op + a z I acts on z^n with constant coefficients:
    # M z^n = sum_k d_k n!/(n-k)! z^{n-k}
    estimates = np.full((n_cap + 1, n_cap + 1), np.nan + 0j, dtype=np.complex128)
    for n in range(n_cap + 1):
        mcol = e[:, n].copy()
        if n + 1 < mcol.size:
            mcol[n + 1] += a_est  # cancel the -a z^{n+1} term
        fall = 1.0  # n! / (n-k)!
        for k in range(n + 1):
            estimates[k, n] = mcol[n - k] / fall
            fall *= n - k
    d = np.zeros(n_cap + 1, dtype=np.complex128)
    for k in range(n_cap + 1):
        vals = estimates[k, k:]
        d[k] = vals[-1]  # widest column carries the most context
        if np.abs(vals - d[k]).max() > tol:
            raise InconsistentConvolution(
                f"coefficient d_{k} varies across columns by "
                f"{np.abs(vals - d[k]).max():.3e}"
            )
    nz = np.nonzero(np.abs(d) > 1e-11)[0]
    if nz.size == 0:
        raise ZeroOperator("recovered convolution part is zero")
    return a_est, ConvolutionOperator(d[: nz[-1] + 1])
