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
arrays and on exact integer pairs at one power-of-two scale: the real and
imaginary parts as two rows of Python ints, whose complex multiply-add is
written out by hand.  Operator and series coefficients are doubles, hence
dyadic rationals, so commutators and operator powers are formed exactly
and rounded once.  The rounded core acts on one coefficient vector or on a
``(K, N)`` stack of them, row by row with the same bits.
Truncated-series application (differentiation included),
monomial matrices, commutators, the ladder check and the direct orbit
route all read the core; the decomposition diagnostic recovers (a, M)
from a monomial matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCoefficients,
    InconsistentConvolution,
    KernelResidualTooLarge,
    MalformedSpec,
    NonFiniteCoefficient,
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


def to_gaussian(values):
    """Integer parts G, a ``(2, n)`` object array of Python ints (row 0
    real, row 1 imaginary), and e >= 0 with values == (G[0] + i G[1]) / 2**e.

    Every double is a dyadic rational, so the conversion is exact.
    """
    parts = [
        float(x).as_integer_ratio()
        for z in np.atleast_1d(np.asarray(values, dtype=np.complex128))
        for x in (z.real, z.imag)
    ]
    e = max(den.bit_length() for _, den in parts) - 1
    ints = [num << (e + 1 - den.bit_length()) for num, den in parts]
    out = np.empty((2, len(ints) // 2), dtype=object)
    out[0], out[1] = ints[0::2], ints[1::2]
    return out, e


def _quotient(num: int, den: int) -> float:
    try:
        return num / den  # correctly rounded
    except OverflowError:
        # an int past the double range has no float to copy a sign from
        return math.inf if num > 0 else -math.inf


def from_gaussian(re, im, e: int) -> np.ndarray:
    """(re + i im) / 2**e for integer sequences re, im, each part rounded once.

    Each integer is converted to the nearest double, and the scaling by
    2**-e is exact while the result is a normal double; only a part whose
    result would be subnormal (rounded twice otherwise), or whose integer
    is past the double range, is one correctly rounded division.
    """
    ints = np.array([re, im], dtype=object)
    try:
        wide = ints.astype(np.float64)
    except OverflowError:  # a part past the double range
        wide = np.array([[_quotient(x, 1) for x in row] for row in ints])
    parts = np.ldexp(wide, -e)
    slow = ((wide != 0) & ~(np.abs(parts) >= sys.float_info.min)) | np.isinf(parts)
    for k, j in zip(*np.nonzero(slow)):
        parts[k, j] = _quotient(ints[k, j], 1 << e)
    out = np.empty(parts.shape[1], dtype=np.complex128)
    out.real, out.imag = parts
    return out


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


def _mul_add(acc: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """acc += x * y elementwise; exact operands are ``(2, ...)`` integer
    parts, multiplied out by hand."""
    if acc.dtype == object:
        acc[0] += x[0] * y[0] - x[1] * y[1]
        acc[1] += x[0] * y[1] + x[1] * y[0]
    else:
        acc += x * y


def _compose(x: dict, y: dict) -> dict:
    """Section of x y (y applied first)."""
    size = next(iter(y.values())).shape[-1]
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
                acc = out[sx + sy] = np.zeros(vy.shape, dtype=vy.dtype)
            _mul_add(acc[..., lo:hi], vx[..., lo - sy : hi - sy], vy[..., lo:hi])
    return out


def _bands(op, size: int, exact: bool):
    """Section of op on z^0..z^{size-1} and its scale exponent e.

    The operator equals the section divided by 2**e.  Rounded: complex128
    values and e = 0.  Exact: ``(2, size)`` integer parts, with T scaled to
    T' = 2**s T and 2**(t + s q) L(T) = sum_k (2**t l_k) 2**(s (q-k)) T'^k.
    """
    d, a, l, _ = _polynomial_form(op)
    q = l.size - 1
    if exact:
        shape, dtype = (2, size), object
        # each coefficient as a (2, 1) column of integer parts, which
        # broadcasts along a band
        g, s = to_gaussian(np.append(d, -a))
        *d, minus_a = g.T[..., None]
        g, t = to_gaussian(l)
        l = [c << (s * (q - k)) for k, c in enumerate(g.T[..., None])]
        scale = t + s * q
    else:
        shape, dtype = size, np.complex128
        minus_a = -a
        scale = 0
    col = np.arange(size, dtype=object if exact else np.float64)
    base = {}
    fall = np.ones(size, dtype=col.dtype)  # j (j-1) ... (j-k+1)
    for k, dk in enumerate(d):
        if np.any(dk):
            base[k] = fall * dk
        fall = fall * (col - k)
    if np.any(minus_a):
        base[-1] = np.full(shape, minus_a, dtype=dtype)
    section = {0: np.full(shape, l[q], dtype=dtype)}
    for k in range(q - 1, -1, -1):
        section = _compose(base, section)
        if np.any(l[k]):
            section[0] = section.get(0, np.zeros(shape, dtype=dtype)) + l[k]
    return section, scale


def _act(section: dict, x: np.ndarray) -> np.ndarray:
    """Image of the coefficient vector x, or of each row of a ``(K, N)``
    stack x, under the section."""
    size = x.shape[-1]
    out = np.zeros(x.shape, dtype=x.dtype)
    for s, v in section.items():
        lo, hi = max(0, s), size + min(0, s)
        _mul_add(out[..., lo - s : hi - s], v[..., lo:hi], x[..., lo:hi])
    return out


def _dense(section: dict, rows: int, cols: int) -> np.ndarray:
    """The section's first ``cols`` columns and ``rows`` rows as a matrix."""
    entries = np.zeros((rows, cols), dtype=np.complex128)
    for s, v in section.items():
        j = np.arange(max(0, s), min(cols, rows + s))
        entries[j - s, j] = v[j]
    return entries


def op_on_poly(op, p) -> np.ndarray:
    """Image of the polynomial p (coefficient array) under op, untruncated.

    A ``(K, N)`` stack of coefficient rows gives the ``(K, N + rise)``
    images, each row the bits of its own image.
    """
    p = np.atleast_1d(np.asarray(p, dtype=np.complex128))
    size = p.shape[-1] + _polynomial_form(op)[3]
    x = np.zeros(p.shape[:-1] + (size,), dtype=np.complex128)
    x[..., : p.shape[-1]] = p
    return _act(_bands(op, size, exact=False)[0], x)


def exact_power(op, coeffs, n: int):
    """op^n on the fixed-length coefficient vector ``coeffs``, exactly.

    The tail beyond ``len(coeffs)`` is dropped after every factor of T.
    Returns integer parts G, a ``(2, len(coeffs))`` object array, and e
    with the image equal to (G[0] + i G[1]) / 2**e.
    """
    section, scale = _bands(op, len(coeffs), exact=True)
    g, e = to_gaussian(coeffs)
    for _ in range(n):
        g = _act(section, g)
    return g, e + n * scale


def matrix_on_monomials(op, n_cap: int) -> np.ndarray:
    """Exact action on z^0..z^n_cap as a dense matrix: column n holds the
    coefficients of op z^n."""
    if not (1 <= n_cap <= N_CAP_MAX):
        raise MalformedSpec(f"n_cap must be in 1..{N_CAP_MAX}, got {n_cap}")
    rows = n_cap + 1 + max(1, _polynomial_form(op)[3])
    section, _ = _bands(op, rows, exact=False)
    return _dense(section, rows, n_cap + 1)


def commutator_matrix(op_a, op_b, n_cap: int) -> np.ndarray:
    """Matrix of op_a op_b - op_b op_a on monomials of degree <= n_cap - 1.

    Composed in exact integer arithmetic (the inputs are dyadic
    rationals) and rounded once per entry, so algebraic identities like
    [M - a z I, D] = a I come out bit-exact instead of drowning in the
    factorial growth of the intermediate compositions.  One degree is
    sacrificed to the composition, so the matrix has n_cap columns.
    """
    if not (1 <= n_cap <= N_CAP_MAX):
        raise MalformedSpec(f"n_cap must be in 1..{N_CAP_MAX}, got {n_cap}")
    rise = _polynomial_form(op_a)[3] + _polynomial_form(op_b)[3]
    rows = n_cap + max(1, rise)
    sec_a, e_a = _bands(op_a, rows, exact=True)
    sec_b, e_b = _bands(op_b, rows, exact=True)
    comm = _compose(sec_a, sec_b)
    for s, v in _compose(sec_b, sec_a).items():
        comm[s] = comm.get(s, 0) - v
    rounded = {s: from_gaussian(v[0], v[1], e_a + e_b) for s, v in comm.items()}
    return _dense(rounded, rows, n_cap)


# ---------------------------------------------------------------------------
# application to truncated series


def truncated_image(op, coeffs: np.ndarray) -> np.ndarray:
    """op on a truncated series' coefficients, or on each row of a
    ``(K, N)`` stack, on the coefficients that do not reach past the
    truncation.

    Every factor of T takes ord M derivative levels, so L(T) of degree q
    in T leaves an image q ord M coefficients shorter than its input.
    """
    d, _, l, _ = _polynomial_form(op)
    drop = (l.size - 1) * int(np.nonzero(d)[0][-1])
    size = coeffs.shape[-1]
    if drop >= size:
        raise OrderExhausted(
            f"operator needs {drop} derivative levels, series has "
            f"{size} coefficients"
        )
    return op_on_poly(op, coeffs)[..., : size - drop]


def apply_conv(m: ConvolutionOperator, f: TaylorSeries) -> TaylorSeries:
    """sum_k d_k f^(k)."""
    return TaylorSeries(truncated_image(m, f.coeffs))


def differentiate(f: TaylorSeries, k: int = 1) -> TaylorSeries:
    """k-th derivative f^(k), the series image of D^k."""
    if k < 0:
        raise MalformedSpec("derivative order must be >= 0")
    return apply_conv(diff_op(k), f)


def apply_weyl(t: WeylOperator, f: TaylorSeries) -> TaylorSeries:
    """(M - a z I) f on the overlapping coefficient range."""
    return TaylorSeries(truncated_image(t, f.coeffs))


def apply_composite(c: CompositeOperator, f: TaylorSeries) -> TaylorSeries:
    """L(T) f, a polynomial of degree q in T taking q times the order of M."""
    return TaylorSeries(truncated_image(c, f.coeffs))


def scalar_identity_diagnostics(e: np.ndarray):
    """Test a monomial matrix against a * I.

    Returns (a_estimate, offdiag_max, diag_spread) where the estimate is
    the mean diagonal of the square top block and both deviations cover
    the full stored matrix including overflow rows.
    """
    ncols = e.shape[1]
    diag = np.diagonal(e[:ncols, :ncols])
    a_est = complex(diag.mean())
    diag_dev = np.abs(diag - a_est)
    # the off-diagonal |e| beside the diagonal's deviations from a_est
    mag = np.abs(e)
    mag[np.arange(diag.size), np.arange(diag.size)] = 0.0
    offdiag_max = float(np.maximum(mag.max(), diag_dev.max()))
    return a_est, offdiag_max, float(diag_dev.max())


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


def _commutator_with_diff(e: np.ndarray) -> np.ndarray:
    """[Op, D] computed from the monomial matrix alone.

    [Op, D] z^n = n Op[z^{n-1}] - D(Op[z^n]); both terms are available from
    the stored columns.
    """
    rows, cols = e.shape
    out = np.zeros((rows, cols), dtype=np.complex128)
    out[:, 1:] += e[:, :-1] * np.arange(1, cols)
    out[:-1, :] -= e[1:, :] * np.arange(1, rows)[:, None]
    return out


def decompose(e: np.ndarray):
    """Recover (a, M) from the monomial matrix of an unknown operator.

    Raises NonFiniteCoefficient when [Op, D] leaves the double range,
    NotWeyl when it is not a scalar multiple of the identity within the
    tolerance, and InconsistentConvolution when the residual operator
    Op + a z I does not act with constant coefficients.

    The tolerance is ``max(DECOMPOSE_TOL, noise floor)``, where
    the floor is the cancellation error of a genuinely Weyl matrix whose
    entries (of size d_k n!/(n-k)!) were themselves rounded to doubles:
    below that floor non-Weyl-ness is not detectable from the matrix.
    """
    cols = e.shape[1]
    comm = _commutator_with_diff(e)
    if not np.isfinite(comm).all():
        # no artifact can hold an inf diagnostic, and a NaN one passes
        # every tolerance test below
        raise NonFiniteCoefficient(
            "[Op, D] of the matrix leaves the double range"
        )
    a_est, offdiag_max, diag_spread = scalar_identity_diagnostics(comm)
    scale = float(np.abs(e).max())
    noise_floor = 8 * np.finfo(float).eps * cols * scale
    tol = max(DECOMPOSE_TOL, noise_floor)
    if offdiag_max > tol or diag_spread > tol:
        raise NotWeyl(
            f"[Op, D] is not a scalar identity: off-diagonal max "
            f"{offdiag_max:.3e}, diagonal spread {diag_spread:.3e}",
            offdiag_max=offdiag_max,
            diag_spread=diag_spread,
        )
    # M = Op + a z I acts on z^n with constant coefficients:
    # M z^n = sum_k d_k n!/(n-k)! z^{n-k}, rows n..0 of column n, which
    # the -a z^{n+1} term (row n + 1) does not reach; so diagonal k of e
    # over row k of the falling factorials n (n-1) ... (n-k+1), multiplied
    # in that order, estimates d_k once per column n >= k
    n = np.arange(cols, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # past n ~ 170
        falling = np.cumprod(np.vstack([np.ones(cols), n - n[:-1, None]]), axis=0)
    d = np.zeros(cols, dtype=np.complex128)
    for k in range(cols):
        vals = np.diagonal(e, k) / falling[k, k:]
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
