"""Explicit approximate orbit construction for A = L(T).

An :class:`OrbitProblem` is the eigenfamily of A and the targets.  Given
polynomial targets q_1..q_m, the constructor produces a truncated series
f and a schedule n_1 < ... < n_m such that A^{n_j} f approximates q_j on
a disk.  f is one coordinate vector x over an expanding lambda set
Lambda,

    f = sum_i x_i f_{lambda_i},

with mu_i the eigenvalue of A at f_{lambda_i}
(:func:`~weylcalc.eigen.eigenvalue_of`) and |mu_i| >= 1 + margin, so
A^n f has eigen-coordinates x mu^n.  Lambda holds ``lambda_count`` points
per target.  For the equispaced schedule n_j = j * step, step = 1, 2, ...,
one least-squares fit of the stacked system

    [E diag(mu^{n_1}); ...; E diag(mu^{n_m})] x ~ [q_1; ...; q_m],

E the collocation matrix of the members, is solved through the same
Tikhonov/TSVD code as every completeness fit
(:func:`~weylcalc.eigen.regularized_solve`), and the first step at which
every target is met within epsilon/2 on the verification circle wins.
Because the fit is joint, no target's correction can spoil another's:
what is checked is A^{n_j} applied to the whole of f.  The constructor
builds one :class:`~weylcalc.eigen.CompletenessBasis` for Lambda and uses
it for every per-target fit, the stacked system, the achieved errors and
the coefficients of f.

Verification has two routes.  The eigen route reads the members' values
on the verification circle from the constructor's basis and measures the
full vector at every scheduled iterate.  The direct route, the check that
does not depend on the constructor, applies A to the coefficients of f at
every scheduled iterate and must agree (:func:`targets_met`).  It powers
L(T) through the banded core of :mod:`weylcalc.operators` exactly, on
Gaussian integers, and rounds once, so it carries no precision setting.
It evaluates the exact coefficients in two stages
(:func:`direct_power_values`).  A vectorised double-double pass gives
each real and imaginary part as h + l within a bound beta, and decides
the part when h is finite and normal and |l| + beta + delta (delta the
fixed-point Horner's own error) is strictly below half the spacing of
doubles beneath |h|.  The fixed-point Horner on Python ints runs only
on the points with an undecided part.  Every value is the one the
Horner alone gives.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    MalformedSpec,
    NonFiniteCoefficient,
    ScheduleOverflow,
    SearchExhausted,
)
from .eigen import (
    RIDGE_DEFAULT,
    CompletenessBasis,
    DiskSpec,
    EigenFamily,
    LambdaSet,
    completeness_bases,
    completeness_fit,
    eigenvalue_of,
    regularized_solve,
)
from .operators import CompositeOperator, exact_power, from_gaussian, to_gaussian
from .series import TaylorSeries, evaluate_grid, linear_combine

#: expanding lambda points per target
LAMBDA_COUNT_DEFAULT = 16

#: the expanding points have |eigenvalue| >= 1 + margin
MARGIN_DEFAULT = 2.0

#: cap on the largest scheduled iterate
SCHEDULE_CAP = 200

#: fixed-point bits kept below the resolution of the exact coefficients
#: when the direct route evaluates them
GUARD_BITS = 64

#: radial search cap for expanding eigenvalue points
SEARCH_RADIUS_CAP = 64.0

#: largest entry of the stacked system; Tikhonov squares its singular
#: values, which must stay finite
STACKED_MAX = 1e150


@dataclass(frozen=True)
class OrbitProblem:
    """Targets-and-budget statement for the orbit constructor; A = L(T) is
    ``family.op``."""

    family: EigenFamily
    targets: list
    radius: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.family.op.poly_degree < 1:
            raise MalformedSpec("L must be non-constant")
        for name in ("radius", "epsilon"):
            value = getattr(self, name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (number and 0 < value <= sys.float_info.max):
                raise MalformedSpec(
                    f"{name!r}: expected a finite positive number, got {value!r}"
                )
            object.__setattr__(self, name, float(value))
        if not self.targets:
            raise MalformedSpec("at least one target is required")
        for q in self.targets:
            nonzero = np.flatnonzero(q.coeffs)
            if nonzero.size and nonzero[-1] > 32:
                raise MalformedSpec("targets must be polynomials of degree <= 32")


@dataclass(frozen=True)
class OrbitConstruction:
    """Constructed vector, its basis, coordinates, schedule and report."""

    f: TaylorSeries
    schedule: list
    basis: CompletenessBasis
    eigenvalues: np.ndarray
    coords: np.ndarray  # x: f = sum_i x_i f_{lambda_i}
    report: dict

    def blocks(self) -> list:
        """One (target, n_j, weights) entry per target, the block form
        A^n f = sum_b w_b mu^(n - n_b) of the coordinates: all of f sits
        in block 0 (w_0 = x mu^{n_1}) and the later blocks are zero."""
        zero = np.zeros_like(self.coords)
        return [
            (j, n, _amplitudes(self.coords, self.eigenvalues, n) if j == 0 else zero)
            for j, n in enumerate(self.schedule)
        ]


def direct_power_values(
    c: CompositeOperator, f: TaylorSeries, n: int, pts: np.ndarray
) -> np.ndarray:
    """A^n f evaluated at ``pts`` by repeated operator application.

    A acts on the fixed-length coefficient vector of f, the tail dropped
    after every factor of T, in exact arithmetic: the truncated operator is
    severely non-normal, and rounded repeated application would amplify
    roundoff by orders of magnitude per step.  The exact coefficients g_k
    / 2^e are summed by fixed-point Horner with GUARD_BITS below their
    resolution and each value is rounded once.

    That Horner runs on Python ints, so the values are found in two
    stages, and every value is the one the Horner alone would give.
    Stage 1 (:func:`_double_double_values`) evaluates every point at once
    in double-double arithmetic: a pair h + l per real and imaginary
    part, within a bound beta of p(z) = sum_k g_k z^k / 2^e.  The Horner
    itself is within delta of p(z) before it rounds.  A part is decided
    when h is finite and normal and |l| + beta + delta is strictly below
    half the spacing of doubles beneath |h|: then the Horner's value lies
    inside the rounding interval of h, off its ends, and rounds to h.
    Stage 2 runs the Horner on the points with an undecided part alone;
    each of its floors is floor(acc z) whatever scale the points share,
    so a point's value does not depend on the others.
    """
    g, e = exact_power(c, f.coeffs, n)
    pts = np.atleast_1d(np.asarray(pts, dtype=np.complex128))
    values = np.zeros(pts.size, dtype=np.complex128)
    undecided = np.ones(pts.size, dtype=bool)
    first = _double_double_values(g, e, pts)
    if first is not None:
        (h, l), beta, delta = first
        undecided = ~_decided(h, l, beta + delta).all(axis=0)
        values.real, values.imag = h
    if undecided.any():
        values[undecided] = _fixed_point_values(g, e, pts[undecided])
    return values


def _fixed_point_values(g: np.ndarray, e: int, pts: np.ndarray) -> np.ndarray:
    """sum_k g_k z^k / 2^e at ``pts`` by Horner in fixed point, GUARD_BITS
    below 2^-e, each value rounded once.  Every step floors each part of
    acc z, so before it is rounded the result is within delta = sqrt(2)
    sum_{j < N - 1} |z|^j 2^-(e + GUARD_BITS) of the exact sum.  Each
    point runs on its own, in plain Python ints."""
    (z_re, z_im), ez = to_gaussian(pts)
    terms = [(g_re << GUARD_BITS, g_im << GUARD_BITS)
             for g_re, g_im in zip(g[0, ::-1].tolist(), g[1, ::-1].tolist())]
    sums_re, sums_im = [], []
    for zr, zi in zip(z_re.tolist(), z_im.tolist()):
        acc_re = acc_im = 0
        for g_re, g_im in terms:
            acc_re, acc_im = (((acc_re * zr - acc_im * zi) >> ez) + g_re,
                              ((acc_re * zi + acc_im * zr) >> ez) + g_im)
        sums_re.append(acc_re)
        sums_im.append(acc_im)
    return from_gaussian(sums_re, sums_im, e + GUARD_BITS)


def _decided(h: np.ndarray, l: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Where every real within |l| + tol of h rounds to h: h finite and
    normal, and that distance strictly below half the spacing of doubles
    beneath |h| (the factor 1 + 2^-30 covers the rounding of the sum)."""
    mag = np.abs(h)
    half_gap = 0.5 * (mag - np.nextafter(mag, 0.0))
    reach = (np.abs(l) + tol) * (1.0 + 2.0**-30)
    return np.isfinite(h) & (mag >= sys.float_info.min) & (reach < half_gap)


# ---------------------------------------------------------------------------
# stage 1: double-double evaluation
#
# A complex double-double is one (2, 2, ..., P) float array, the points
# on its last axis: row 0 the high words of the real and imaginary parts,
# row 1 the low words, each part the unevaluated sum hi + lo, normalised
# when |lo| <= u |hi|, u = 2^-53.  Products split their factors
# (Veltkamp) into halves of 26 bits and multiply the halves out,
# TwoProduct without FMA; sums are TwoSum.

#: unit roundoff of a double
_U = 2.0**-53

#: Veltkamp's splitting constant for 53-bit doubles
_SPLITTER = 2.0**27 + 1.0

#: baby steps z^0..z^(BABY-1) of the power table
_BABY = 16

#: giant steps whose terms sum to at most TAIL S in magnitude at every
#: point are left out of stage 1 and their sum added to its bound
_TAIL = 2.0**-96

#: points per pass over the table of terms c_k z^a, whose temporaries
#: then stay near 1 MB
_CHUNK = 32

#: relative error mu of one double-double complex product (see
#: _double_double_values) and the absolute error eta that underflow can
#: add to it
_MU = 2.0**-99
_ETA = 2.0**-1060

#: log2 of the largest magnitude stage 1 lets any intermediate reach,
#: far from overflow and from the splitter's own limit near 2^996
_LOG2_RANGE = 900


def _two_sum(a, b):
    """s + err == a + b exactly, s the rounded sum (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    """a == hi + lo exactly, each of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _cmul(x, y):
    """Double-double complex product of x and y, which broadcast, its
    parts not normalised: each low word is below 5 u M (see
    _double_double_values).

    The four products of high words, [a c, a d, -b d, b c] for x = a + ib
    and y = c + id, are formed at once by TwoProduct; each part adds its
    two by TwoSum and folds their errors, the cross terms hi * lo and no
    lo * lo into the low word.
    """
    (a, b), (al, bl) = x
    (c, d), (cl, dl) = y
    left, left_lo = np.stack([a, a, b, b]), np.stack([al, al, bl, bl])
    right, right_lo = np.stack([c, d, -d, c]), np.stack([cl, dl, -dl, cl])
    (lh, ll), (rh, rl) = _split(left), _split(right)
    p = left * right
    err = ((lh * rh - p) + lh * rl + ll * rh) + ll * rl
    s, es = _two_sum(p[:2], p[2:])
    cross = left * right_lo + left_lo * right
    return np.stack((s, ((err[:2] + err[2:]) + es) + (cross[:2] + cross[2:])))


def _dd_sum(x):
    """Double-double sum over the axis before the points' (the last): a
    TwoSum tree on the high words, whose errors are added to the low words
    in floating point."""
    hi, err = x[0], x[1].sum(axis=-2)
    while hi.shape[-2] > 1:
        half = hi.shape[-2] // 2
        s, q = _two_sum(hi[..., :half, :], hi[..., half:2 * half, :])
        err = err + q.sum(axis=-2)
        hi = np.concatenate([s, hi[..., 2 * half:, :]], axis=-2)
    return np.stack(_two_sum(hi[..., 0, :], err))


def _powers(x, count: int):
    """x^0..x^(count - 1) of the double-doubles x, a (2, 2, count, P)
    array of normalised pairs, by doubling: with x^0..x^s known,
    x^(s + j) = x^j x^s for j = 1..s."""
    out = np.zeros((2, 2, count, x.shape[-1]))
    out[0, 0, 0] = 1.0
    if count > 1:
        out[:, :, 1] = x
    s = 1
    while s + 1 < count:
        top = min(2 * s, count - 1)
        prod = _cmul(out[:, :, 1:top - s + 1], out[:, :, s:s + 1])
        out[:, :, s + 1:top + 1] = _two_sum(prod[0], prod[1])
        s = top
    return out


def _coefficient_pairs(g: np.ndarray, e: int):
    """hi, lo float arrays shaped like g with hi the correctly rounded
    g / 2^e and lo the rounded remainder; OverflowError past the double
    range."""
    den = 1 << e
    ints = g.ravel().tolist()
    hi = [x / den for x in ints]
    lo = []
    for x, h in zip(ints, hi):
        num, pow2 = h.as_integer_ratio()
        lo.append((x * pow2 - (num << e)) / (pow2 << e))
    return np.reshape(hi, g.shape), np.reshape(lo, g.shape)


def _double_double_values(g: np.ndarray, e: int, pts: np.ndarray):
    """Stage 1 of the direct route: (v, beta, delta) for p(z) =
    sum_{k<N} g_k z^k / 2^e at every point, or None where stage 1 does not
    run (no points, a non-finite point, a coefficient past the double
    range, or a magnitude past 2^_LOG2_RANGE).

    v is the complex double-double of p(z), a (2, 2, P) array: each part
    an unevaluated pair h + l.  beta bounds |h + l - p(z)| in each part
    and delta the fixed-point Horner's error (:func:`_fixed_point_values`),
    both rounded up.

    The evaluation is baby-step/giant-step, every step vectorised over
    points x coefficients: with m = min(16, N), nb = ceil(N / m) and W =
    z^m, the terms c_k z^a (k = m b + a, c_k the double-double of g_k /
    2^e) are summed over a into q_b, and the q_b W^b over b.  The powers
    z^0..z^m and W^0..W^(nb-1) are each built by doubling.  The giant
    steps from some b on are left out when, at every point, their terms'
    magnitudes sum to at most _TAIL S; that sum, the tail, joins beta.

    Why beta holds.  Let S = sum_k |g_k| |z|^k / 2^e.  One double-double
    complex product of normalised X and Y is within mu |X| |Y| of X Y, mu
    = 2^-99: in each part, against M = |a||c| + |b||d| <= |X||Y|
    (Cauchy-Schwarz), the dropped lo * lo are below u^2 M, and the low
    word is the rounded sum of TwoProduct and TwoSum errors and cross
    terms hi * lo of at most 4.01 u M, so it is below 5 u M and its
    roundings cost under 16 u^2 M; times sqrt(2) for the modulus.  c_k is
    within u^2 |g_k| / 2^e of g_k / 2^e in each part.  A power z^j formed
    by any tree of products is within (1 + mu)^(j-1) - 1 of z^j,
    relative, so q_b W^b carries at most N + m factors 1 + mu against S_b
    |z|^(m b).  A double-double sum of n such products is within sigma_n
    = 2 n (ceil(log2 n) + 6) u^2 times the sum of their M in each part:
    the TwoSum tree is exact, each level's errors are at most u times its
    magnitudes, and they and the low words, fewer than 2 n numbers, are
    added in floating point.  Altogether

        |h + l - p(z)| <= ((1 + mu)^(N+m) (1 + sqrt(2) sigma_m)
                           (1 + sqrt(2) sigma_nb) - 1) S + tail
                       <= 1.01 ((N + m) mu + 1.5 (sigma_m + sigma_nb)) S
                          + tail.

    S and the tail are computed in floating point from |z| and |c_k|,
    with fewer than 4 (N + m) roundings, which the factor 1 + 8 (N + m) u
    covers.  Every intermediate stays below 2^900, so nothing overflows
    and every split is exact.  Underflow can make a product err by a
    further few 2^-1075, absolute, which the later factors, at most
    max(1, |c|) max(1, |z|)^(N-1) together, scale; beta adds eta (N +
    m)^2 times that scale, eta = 2^-1060, which also covers delta's
    rounding to zero.
    """
    n_coeffs = g.shape[1]
    if not (pts.size and np.isfinite(pts).all()):
        return None
    try:
        c_hi, c_lo = _coefficient_pairs(g, e)
    except OverflowError:
        return None
    c_max = float(np.abs(c_hi).max())
    part_max = float(max(np.abs(pts.real).max(), np.abs(pts.imag).max()))
    r_max = max(1.0, 1.5 * part_max)  # >= |z| at every point
    log2_scale = (math.log2(2 * n_coeffs * max(1.0, c_max))
                  + (n_coeffs - 1) * math.log2(r_max))
    if log2_scale > _LOG2_RANGE:
        return None
    m = min(_BABY, n_coeffs)
    nb = -(-n_coeffs // m)

    # |z|^a against |c_k| and against ones: each giant step's share of S,
    # and sum_{j<N-1} |z|^j
    r = np.hypot(pts.real, pts.imag)
    r_baby = np.cumprod(np.column_stack([np.ones_like(r)] + [r] * (m - 1)), axis=1)
    r_giant = np.cumprod(
        np.column_stack([np.ones_like(r)] + [r_baby[:, -1] * r] * (nb - 1)), axis=1
    )
    weights = np.zeros((2, nb * m))
    weights[0, :n_coeffs] = np.hypot(c_hi[0], c_hi[1])
    weights[1, :n_coeffs - 1] = 1.0
    shares = (r_baby @ weights.reshape(2 * nb, m).T).reshape(-1, 2, nb)
    shares *= r_giant[:, None, :]
    tails = np.cumsum(shares[:, 0, ::-1], axis=1)[:, ::-1]  # steps b.. on
    s_abs = tails[:, 0]
    cut = np.append((tails[:, 1:] <= _TAIL * s_abs[:, None]).all(axis=0), True)
    kept = 1 + int(cut.argmax())  # giant steps evaluated
    tail = tails[:, kept] if kept < nb else 0.0

    coeffs = np.zeros((2, 2, kept * m))
    used = min(n_coeffs, kept * m)
    coeffs[0, :, :used], coeffs[1, :, :used] = c_hi[:, :used], c_lo[:, :used]
    coeffs = coeffs.reshape(2, 2, kept, m, 1)
    z = np.zeros((2, 2, pts.size))
    z[0] = pts.real, pts.imag
    baby = _powers(z, m + 1 if kept > 1 else m)
    blocks = np.concatenate([
        _dd_sum(_cmul(coeffs, baby[:, :, None, :m, i:i + _CHUNK]))
        for i in range(0, pts.size, _CHUNK)
    ], axis=-1)
    if kept > 1:
        blocks = _cmul(blocks, _powers(baby[:, :, m], kept))
    value = _dd_sum(blocks)

    def sigma(count):
        return 2 * count * (math.ceil(math.log2(count)) + 6) * _U**2

    rel = 1.01 * ((n_coeffs + m) * _MU + 1.5 * (sigma(m) + sigma(nb)))
    beta = ((rel * s_abs + tail) * (1 + 8 * (n_coeffs + m) * _U)
            + _ETA * (n_coeffs + m) ** 2 * 2.0**log2_scale)
    # sqrt(2) rounded up; past 2^-2200 every delta rounds to zero anyway
    delta = np.ldexp(1.4143 * shares[:, 1].sum(axis=1), -min(e + GUARD_BITS, 2200))
    return value, beta, delta


def _amplitudes(coords: np.ndarray, mu: np.ndarray, n: int) -> np.ndarray:
    """Eigen-coordinates x mu^n of A^n f; the exponent is a float, so
    every caller rounds the powers the same way."""
    return coords * mu ** float(n)


def select_expanding_lambdas(
    c: CompositeOperator, count: int, margin: float
) -> LambdaSet:
    """``count`` points where the eigenvalue of c has modulus >= 1 + margin,
    one per equispaced ray.

    All rays are marched outward from the origin over the same radii, up
    to SEARCH_RADIUS_CAP (else SearchExhausted), and each ray's first
    crossing of the level 1 + margin is bisected, all rays at once, so the
    points cluster near the level set (large spread in |eigenvalue| would
    wreck the conditioning of the later fits).
    """
    if not 1.0 + margin > 1.0:
        raise MalformedSpec(f"1 + margin must exceed 1, got margin {margin}")
    if count < 1:
        raise MalformedSpec("count must be >= 1")
    level = 1.0 + margin
    thetas = [2 * math.pi * i / count for i in range(count)]
    directions = np.array([complex(math.cos(t), math.sin(t)) for t in thetas])

    def reached(r) -> np.ndarray:
        # np.hypot rounds |mu| as abs() does on a Python complex
        mu = eigenvalue_of(c, r * directions)
        return np.hypot(mu.real, mu.imag) >= level

    lo = np.zeros(count)
    hi = np.full(count, np.nan)
    r = 0.05
    while r <= SEARCH_RADIUS_CAP and np.isnan(hi).any():
        marching = np.isnan(hi)
        hit = marching & reached(r)
        hi[hit] = r
        lo[marching & ~hit] = r
        r *= 1.25
    exhausted = np.flatnonzero(np.isnan(hi))
    if exhausted.size:
        raise SearchExhausted(
            f"no |symbol| >= {level} within radius {SEARCH_RADIUS_CAP} on ray "
            f"{exhausted[0]}/{count}"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hit = reached(mid)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    return LambdaSet(hi * directions)


def construct_orbit(
    problem: OrbitProblem,
    lambda_count: int = LAMBDA_COUNT_DEFAULT,
    margin: float = MARGIN_DEFAULT,
    ridge: float = RIDGE_DEFAULT,
) -> OrbitConstruction:
    """One stacked fit over the target list.

    Lambda has ``lambda_count`` points per target.  Each target's own fit
    in span{f_lambda} must meet epsilon/2 (else BudgetExceeded); then the
    schedules n_j = j * step are tried for step = 1, 2, ... while
    n_m <= SCHEDULE_CAP and the largest mu^{n_m} keeps the stacked
    system within STACKED_MAX, and the first whose stacked fit meets
    every target within epsilon/2 on the verification circle is kept
    (ScheduleOverflow when none does).
    """
    family = problem.family
    targets = problem.targets
    m_targets = len(targets)
    budget = problem.epsilon / 2
    lambdas = select_expanding_lambdas(family.op, lambda_count * m_targets, margin)
    mu = eigenvalue_of(family.op, lambdas.points)
    [basis] = completeness_bases(family, [lambdas], DiskSpec(problem.radius, 64))

    fit_residuals = []
    for j, q in enumerate(targets):
        fit = completeness_fit(basis, q, ridge)
        if fit.residual_norm > budget:
            raise BudgetExceeded(
                f"target {j}: fit residual {fit.residual_norm:.3e} exceeds "
                f"epsilon/2 = {budget:.3e} with {len(lambdas)} lambda points",
                target_index=j,
                residual=fit.residual_norm,
                budget=budget,
            )
        fit_residuals.append(fit.residual_norm)

    rhs = np.concatenate([evaluate_grid(q, basis.points) for q in targets])
    q_verify = [evaluate_grid(q, basis.verify_points) for q in targets]
    room = math.log(STACKED_MAX / np.abs(basis.collocation).max())
    cap = min(SCHEDULE_CAP, max(0, int(room / math.log(np.abs(mu).max()))))
    missed = m_targets - 1
    for step in range(1, cap // m_targets + 1):
        schedule = [(j + 1) * step for j in range(m_targets)]
        stacked = np.vstack([basis.collocation * mu ** float(n) for n in schedule])
        x, cond, level = regularized_solve(stacked, rhs, ridge)
        errors = [
            float(np.abs(basis.verification @ _amplitudes(x, mu, n) - qv).max())
            for n, qv in zip(schedule, q_verify)
        ]
        misses = [j for j, err in enumerate(errors) if not err <= budget]
        if not misses:
            break
        missed = misses[0]
    else:
        raise ScheduleOverflow(
            f"target {missed}: no schedule n_j = j * step with n_m <= "
            f"{cap} meets epsilon/2 = {budget:.3e} on every target",
            target_index=missed,
            attempted=m_targets * (cap // m_targets + 1),
            cap=cap,
        )

    report = {
        "per_target": [
            {"target": j, "n": n, "achieved_error": err, "fit_residual": res}
            for j, (n, err, res) in enumerate(zip(schedule, errors, fit_residuals))
        ],
        "ridge": level,
        "condition": cond,
    }
    return OrbitConstruction(
        f=linear_combine(zip(x, map(TaylorSeries, basis.rows))),
        schedule=schedule,
        basis=basis,
        eigenvalues=mu,
        coords=x,
        report=report,
    )


def targets_met(rows: list, epsilon: float) -> bool:
    """Whether the verified orbit succeeds: at every scheduled iterate the
    full vector is within epsilon of its target and the direct route agrees
    with the eigen-sum within epsilon / 10."""
    return all(
        row["eigen_error_full"] <= epsilon
        and row["method_discrepancy"] <= epsilon / 10
        for row in rows
    )


def verify_orbit(construction: OrbitConstruction, problem: OrbitProblem) -> list:
    """Two-route check of every scheduled iterate on the full vector.

    The eigen-sum on the constructor's basis is compared against direct
    repeated operator application, and both against the target; rows are
    data, not judgements.  A direct route whose values leave the double
    range raises NonFiniteCoefficient.
    """
    c = problem.family.op
    mu = construction.eigenvalues
    basis = construction.basis
    verify_pts = basis.verify_points
    rows = []
    for j, (q, n_j) in enumerate(zip(problem.targets, construction.schedule)):
        eig_vals = basis.verification @ _amplitudes(construction.coords, mu, n_j)
        direct_vals = direct_power_values(c, construction.f, n_j, verify_pts)
        if not np.isfinite(direct_vals).all():
            raise NonFiniteCoefficient(
                f"direct route at n = {n_j} leaves the double range"
            )
        rows.append({
            "target": j,
            "n": n_j,
            "eigen_error_full": float(
                np.abs(eig_vals - evaluate_grid(q, verify_pts)).max()
            ),
            "method_discrepancy": float(np.abs(direct_vals - eig_vals).max()),
        })
    return rows
