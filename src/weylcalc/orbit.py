"""Explicit approximate orbit construction for A = T or A = L(T).

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

E the collocation matrix of the members, is solved at the ridge asked
for, by the same solve as every completeness fit (one Tikhonov solve, or
the truncated SVD at ridge 0: :func:`~weylcalc.eigen.regularized_solve`),
and the first step at which every target is met within epsilon/2 on the
verification circle wins.  No stacked matrix is factored: the basis holds
the SVD U Sigma V^H of E, and each step factors only the small core
[Sigma V^H diag(mu^{n_j})]_j (:meth:`~weylcalc.eigen.CompletenessBasis.stacked`).
The :class:`OrbitConstruction` works f and mu out from the problem and x.
Because the fit is joint, no target's correction can spoil another's:
what is checked is A^{n_j} applied to the whole of f.  The constructor
builds one :class:`~weylcalc.eigen.CompletenessBasis` for Lambda and uses
it for the per-target fits (all targets in one call), the stacked system,
the achieved errors and the coefficients of f.

Verification has two routes, both at the exact roots of unity of the
verification circle.  The eigen route reads the members' values there
from the constructor's basis and measures the full vector at every
scheduled iterate: it is the constructor's own product, so its error
equals the report's ``achieved_error`` by construction.  The direct
route, the check that does not depend on the constructor, applies A to
the coefficients of f at every scheduled iterate and must agree
(:func:`targets_met`).  It powers A through the
banded core of :mod:`weylcalc.operators` exactly, on Gaussian integers,
folds the exact coefficients mod the number of points, rounds each fold
once and takes the values by one inverse FFT
(:func:`direct_power_values`), so it carries no precision setting.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

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
    VERIFY_POINTS,
    CompletenessBasis,
    DiskSpec,
    EigenFamily,
    FitReport,
    LambdaSet,
    completeness_bases,
    completeness_fit,
    eigenvalue_of,
    regularized_solve,
)
from .operators import CompositeOperator, exact_power, from_gaussian
from .series import TaylorSeries, evaluate_grid, linear_combine, stacked_coeffs

#: expanding lambda points per target
LAMBDA_COUNT_DEFAULT = 16

#: the expanding points have |eigenvalue| >= 1 + margin
MARGIN_DEFAULT = 2.0

#: cap on the largest scheduled iterate
SCHEDULE_CAP = 200

#: radial search cap for expanding eigenvalue points
SEARCH_RADIUS_CAP = 64.0

#: largest entry of the stacked system; Tikhonov squares its singular
#: values, which must stay finite
STACKED_MAX = 1e150


@dataclass(frozen=True)
class OrbitProblem:
    """Targets-and-budget statement for the orbit constructor; A is
    ``family.op``, T or a non-constant L(T)."""

    family: EigenFamily
    targets: list
    radius: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        op = self.family.op
        if isinstance(op, CompositeOperator) and op.poly_degree < 1:
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
    """A problem's schedule, basis, coordinates x and report; f = sum_i x_i
    f_{lambda_i} and the ``eigenvalues`` mu_i of A are worked out."""

    problem: OrbitProblem
    schedule: list
    basis: CompletenessBasis
    coords: np.ndarray  # x
    report: dict
    f: TaylorSeries = field(init=False)
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "f", linear_combine(
            zip(self.coords, map(TaylorSeries, self.basis.rows))))
        object.__setattr__(self, "eigenvalues", eigenvalue_of(
            self.problem.family.op, self.basis.lambdas.points))

    def blocks(self) -> list:
        """One (target, n_j, weights) entry per target, the block form
        A^n f = sum_b w_b mu^(n - n_b) of the coordinates: all of f sits
        in block 0 (w_0 = x mu^{n_1}) and the later blocks are zero."""
        zero = np.zeros_like(self.coords)
        return [
            (j, n, _amplitudes(self.coords, self.eigenvalues, n) if j == 0 else zero)
            for j, n in enumerate(self.schedule)
        ]


def direct_power_values(c, f: TaylorSeries, n: int, circle: DiskSpec) -> np.ndarray:
    """A^n f on ``circle`` by repeated application of A = c, T or L(T).

    A acts on the fixed-length coefficient vector of f, the tail dropped
    after every factor of T, in exact arithmetic: the truncated operator is
    severely non-normal, and rounded repeated application would amplify
    roundoff by orders of magnitude per step.  The values are those of
    :func:`~weylcalc.series.evaluate_grid`: at R w^j, w = e^(2 pi i / M),
    j < M, on DiskSpec(R, M).

    With R = num / 2^s, the exact coefficients g_k R^k / 2^e of A^n f are
    folded mod M in integers, each fold F_r is rounded once, and one
    inverse FFT of the folds gives the values.  The exact folds are the
    DFT of the values p_j, F_r = (1/M) sum_j p_j w^(-r j), so |F_r| <=
    max_j |p_j|: the FFT meets no cancellation, and one rounding of each
    fold is enough.  A fold or value past the double range leaves some
    value non-finite, without a floating-point warning.
    """
    g, e = exact_power(c, f.coeffs, n)
    num, den = float(circle.radius).as_integer_ratio()
    s, size, m = den.bit_length() - 1, g.shape[1], circle.grid_points
    # g_k R^k / 2^e over the common denominator 2^(e + s (size - 1))
    terms = np.zeros((2, -(-size // m) * m), dtype=object)
    terms[:, :size] = g * np.array(
        [num**k << s * (size - 1 - k) for k in range(size)], dtype=object)
    folds = terms.reshape(2, -1, m).sum(axis=1)
    folded = from_gaussian(folds[0], folds[1], e + s * (size - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        return evaluate_grid(folded, DiskSpec(1.0, m))


def _amplitudes(coords: np.ndarray, mu: np.ndarray, n: int) -> np.ndarray:
    """Eigen-coordinates x mu^n of A^n f; the exponent is a float, so
    every caller rounds the powers the same way."""
    return coords * mu ** float(n)


def select_expanding_lambdas(c, count: int, margin: float) -> LambdaSet:
    """``count`` points where the eigenvalue of c has modulus >= 1 + margin,
    one per equispaced ray.

    All rays are marched outward from the origin over the same radii, up
    to SEARCH_RADIUS_CAP (else SearchExhausted), in one evaluation, and
    each ray's first crossing of the level 1 + margin is bisected, all
    rays at once, so the points cluster near the level set (large spread
    in |eigenvalue| would wreck the conditioning of the later fits).  The
    bisection ends after 60 steps, or at the first step that moves no
    bracket, as every later step would repeat it.
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

    # the radii 0.05 * 1.25^k <= SEARCH_RADIUS_CAP, each the previous one
    # times 1.25; those past a ray's first hit are evaluated too, and
    # discarded
    radii = [0.05]
    while radii[-1] * 1.25 <= SEARCH_RADIUS_CAP:
        radii.append(radii[-1] * 1.25)
    radii = np.array(radii)
    with np.errstate(over="ignore", invalid="ignore"):
        hits = reached(radii[:, None])
    exhausted = np.flatnonzero(~hits.any(axis=0))
    if exhausted.size:
        raise SearchExhausted(
            f"no |symbol| >= {level} within radius {SEARCH_RADIUS_CAP} on ray "
            f"{exhausted[0]}/{count}"
        )
    first = hits.argmax(axis=0)
    hi = radii[first]
    lo = np.where(first > 0, radii[first - 1], 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hit = reached(mid)
        if not np.where(hit, mid != hi, mid != lo).any():
            break
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
    (ScheduleOverflow when none does).  Each step's stacked system is
    solved through its SVD worked out from the basis's one SVD and that
    of the step's small core (:meth:`CompletenessBasis.stacked`); the
    ridge-0 cutoff is still chosen on the residual of the full stacked
    system.
    """
    family = problem.family
    targets = problem.targets
    m_targets = len(targets)
    budget = problem.epsilon / 2
    lambdas = select_expanding_lambdas(family.op, lambda_count * m_targets, margin)
    mu = eigenvalue_of(family.op, lambdas.points)
    [basis] = completeness_bases(family, [lambdas], DiskSpec(problem.radius))
    values = evaluate_grid(stacked_coeffs(targets), basis.circles)

    fit_residuals = []
    for j, fit in enumerate(completeness_fit(basis, values, ridge)):
        if not isinstance(fit, FitReport):
            raise fit
        if fit.residual_norm > budget:
            raise BudgetExceeded(
                f"target {j}: fit residual {fit.residual_norm:.3e} exceeds "
                f"epsilon/2 = {budget:.3e} with {len(lambdas)} lambda points",
                target_index=j,
                residual=fit.residual_norm,
                budget=budget,
            )
        fit_residuals.append(fit.residual_norm)

    rhs, q_verify = values[:, :-VERIFY_POINTS].ravel(), values[:, -VERIFY_POINTS:]
    room = math.log(STACKED_MAX / np.abs(basis.collocation).max())
    cap = min(SCHEDULE_CAP, max(0, int(room / math.log(np.abs(mu).max()))))
    missed = m_targets - 1
    for step in range(1, cap // m_targets + 1):
        schedule = [(j + 1) * step for j in range(m_targets)]
        stacked, svd = basis.stacked([mu ** float(n) for n in schedule])
        [x], [cond], [failure] = regularized_solve(stacked, rhs[None], ridge, svd)
        if failure:
            raise failure
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
        "ridge": ridge,
        "condition": float(cond),
    }
    return OrbitConstruction(problem, schedule, basis, x, report)


def targets_met(rows: list, epsilon: float) -> bool:
    """Whether the verified orbit succeeds: at every scheduled iterate the
    full vector is within epsilon of its target and the direct route agrees
    with the eigen-sum within epsilon / 10."""
    return all(
        row["eigen_error_full"] <= epsilon
        and row["method_discrepancy"] <= epsilon / 10
        for row in rows
    )


def verify_orbit(construction: OrbitConstruction) -> list:
    """Two-route check of every scheduled iterate on the full vector.

    The eigen-sum on the constructor's basis is compared against direct
    repeated operator application, and both against the target; rows are
    data, not judgements.  The eigen-sum is the constructor's own product
    on the same points, so ``eigen_error_full`` equals the report's
    ``achieved_error`` by construction, and only the direct route is
    independent of the constructor.  The family and the targets are those
    of ``construction.problem``.  A direct route whose values leave the double
    range raises NonFiniteCoefficient.
    """
    c, targets = construction.problem.family.op, construction.problem.targets
    mu = construction.eigenvalues
    basis = construction.basis
    verify = basis.circles[-1]
    q_verify = evaluate_grid(stacked_coeffs(targets), verify)
    rows = []
    for j, (q_values, n_j) in enumerate(zip(q_verify, construction.schedule)):
        eig_vals = basis.verification @ _amplitudes(construction.coords, mu, n_j)
        direct_vals = direct_power_values(c, construction.f, n_j, verify)
        if not np.isfinite(direct_vals).all():
            raise NonFiniteCoefficient(
                f"direct route at n = {n_j} leaves the double range"
            )
        rows.append({
            "target": j,
            "n": n_j,
            "eigen_error_full": float(np.abs(eig_vals - q_values).max()),
            "method_discrepancy": float(np.abs(direct_vals - eig_vals).max()),
        })
    return rows
