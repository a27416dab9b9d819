"""Explicit approximate orbit construction for A = L(T).

Given polynomial targets q_1..q_m, the constructor produces a truncated
series f and a schedule n_1 < ... < n_m such that A^{n_j} applied to the
partial sum of the first j blocks approximates q_j on a disk.  Each block

    u_j = sum_i w_{j,i} mu_i^{-n_j} f_{lambda_i},

with mu_i the eigenvalue of A at f_{lambda_i}
(:func:`~weylcalc.eigen.eigenvalue_of`), lives in the span of
eigenfunctions with |mu_i| >= 1 + margin, so earlier iterates see it
damped by at least (1+margin)^{-(n_j - n_k)}; the damping is what stands
in for the small-eigenvalue half of the eigenfunction criterion.  Block
j's weights fit the target corrected for the amplified earlier blocks; the
correction is applied exactly in eigen-coordinates (the amplified earlier
blocks already lie in the span, so refitting them numerically would only
add noise).  The constructor builds one
:class:`~weylcalc.eigen.CompletenessBasis` for its lambda set and uses it
for every target's fit, for the member values behind the achieved errors
and for the coefficients of f.  A^n multiplies each eigen-coordinate by
mu_i^n, so the cancellation, the achieved errors, the leakage, the weights
of f and the verification all read one sum, sum_b w_b mu^(n - n_b) over
blocks b, computed in one place.

Verification never trusts the bookkeeping alone: it rebuilds the member
values from (family, lambda) instead of taking the constructor's, achieved
errors are recomputed on an independent grid, and every scheduled iterate
up to DIRECT_CAP is cross-checked by direct repeated operator application.
The direct route powers L(T) through the banded core of
:mod:`weylcalc.operators` in exact Gaussian-integer arithmetic and rounds
once, so it carries no precision setting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ScheduleOverflow, SearchExhausted
from .eigen import (
    DiskSpec,
    EigenFamily,
    LambdaSet,
    VERIFY_POINTS,
    completeness_bases,
    completeness_fit,
    eigenfunction,
    eigenvalue_of,
)
from .operators import CompositeOperator, exact_power, from_gaussian, to_gaussian
from .series import TaylorSeries, evaluate_grid, linear_combine

#: default cap on the largest scheduled iterate
SCHEDULE_CAP = 200

#: direct operator-power verification is run only up to this iterate
DIRECT_CAP = 40

#: fixed-point bits kept below the resolution of the exact coefficients
#: when the direct route evaluates them
GUARD_BITS = 64

#: radial search cap for expanding eigenvalue points
SEARCH_RADIUS_CAP = 64.0


@dataclass(frozen=True)
class OrbitProblem:
    """Targets-and-budget statement for the orbit constructor."""

    operator: CompositeOperator
    family: EigenFamily
    targets: list
    radius: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.operator.poly_degree < 1:
            raise ValueError("L must be non-constant")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not self.targets:
            raise ValueError("at least one target is required")
        for q in self.targets:
            if len(q) > 33:
                raise ValueError("targets must be polynomials of degree <= 32")


@dataclass(frozen=True)
class OrbitBlock:
    """One target's contribution to the construction."""

    target_index: int
    n: int
    weights: np.ndarray  # full block weights, correction included


@dataclass(frozen=True)
class OrbitConstruction:
    """Constructed vector, schedule, blocks and honest per-target report."""

    f: TaylorSeries
    schedule: list
    lambdas: LambdaSet
    eigenvalues: np.ndarray
    blocks: list
    report: dict
    family: EigenFamily = field(compare=False, default=None)


def direct_power_values(
    c: CompositeOperator, f: TaylorSeries, n: int, pts: np.ndarray
) -> np.ndarray:
    """A^n f evaluated at ``pts`` by repeated operator application.

    A acts on the fixed-length coefficient vector of f, the tail dropped
    after every factor of T, in exact arithmetic: the truncated operator is
    severely non-normal, and rounded repeated application would amplify
    roundoff by orders of magnitude per step.  The exact coefficients are
    summed by fixed-point Horner with GUARD_BITS below their resolution and
    each value is rounded once.
    """
    g, e = exact_power(c, f.coeffs, n)
    z, ez = to_gaussian(pts)
    z_re = np.array([v.real for v in z], dtype=object)
    z_im = np.array([v.imag for v in z], dtype=object)
    acc_re = np.zeros(z.size, dtype=object)
    acc_im = np.zeros(z.size, dtype=object)
    for coef in g[::-1]:
        acc_re, acc_im = (
            ((acc_re * z_re - acc_im * z_im) >> ez) + (coef.real << GUARD_BITS),
            ((acc_re * z_im + acc_im * z_re) >> ez) + (coef.imag << GUARD_BITS),
        )
    return from_gaussian(acc_re, acc_im, e + GUARD_BITS)


def _amplitudes(blocks, mu: np.ndarray, n: int) -> np.ndarray:
    """Eigen-coordinates of A^n applied to the sum of ``blocks``.

    Block b contributes w_b mu^(n - n_b); the exponent is a float, so
    every caller rounds the powers the same way.
    """
    amp = np.zeros(len(mu), dtype=np.complex128)
    for blk in blocks:
        amp += blk.weights * mu ** float(n - blk.n)
    return amp


def select_expanding_lambdas(
    c: CompositeOperator,
    count: int,
    margin: float,
    family: EigenFamily,
    radius_cap: float = SEARCH_RADIUS_CAP,
) -> LambdaSet:
    """``count`` points where the eigenvalue of c has modulus >= 1 + margin,
    one per equispaced ray.

    Each ray is marched outward from the origin and the first crossing of
    the level 1 + margin is bisected, so the points cluster near the level
    set (large spread in |eigenvalue| would wreck the conditioning of the
    later fits).
    """
    if not 1.0 + margin > 1.0:
        raise ValueError(f"1 + margin must exceed 1, got margin {margin}")
    if count < 1:
        raise ValueError("count must be >= 1")
    level = 1.0 + margin
    points = []
    for i in range(count):
        theta = 2 * math.pi * i / count
        direction = complex(math.cos(theta), math.sin(theta))
        lo, hi = 0.0, None
        r = 0.05
        while r <= radius_cap:
            if abs(eigenvalue_of(c, family, r * direction)) >= level:
                hi = r
                break
            lo = r
            r *= 1.25
        if hi is None:
            raise SearchExhausted(
                f"no |symbol| >= {level} within radius {radius_cap} on ray "
                f"{i}/{count}"
            )
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(eigenvalue_of(c, family, mid * direction)) >= level:
                hi = mid
            else:
                lo = mid
        points.append(hi * direction)
    return LambdaSet(np.array(points))


def _schedule_gap(mass, m, epsilon, margin, gap_factor):
    ratio = mass * 4 * m / epsilon
    if ratio <= 1.0:
        return 1
    gap = gap_factor * math.log(ratio) / math.log(1.0 + margin)
    # a gap that overflows a double exceeds every cap; clamped, it stays an int
    return max(1, math.ceil(min(gap, sys.float_info.max)))


def construct_orbit(
    problem: OrbitProblem,
    lambda_count: int = 16,
    margin: float = 2.0,
    gap_factor: float = 1.25,
    ridge: float = 1e-10,
    schedule_cap: int = SCHEDULE_CAP,
) -> OrbitConstruction:
    """Greedy block construction over the target list.

    Per target: fit the target in the expanding span, derive the iterate
    gap from the fit's coefficient mass, cancel the amplified earlier
    blocks exactly in eigen-coordinates, and record the achieved error of
    A^{n_j} applied to the partial sum through block j together with the
    leakage bounds of block j at all earlier scheduled times.
    """
    c = problem.operator
    family = problem.family
    m_targets = len(problem.targets)
    disk = DiskSpec(problem.radius, 64)
    lambdas = select_expanding_lambdas(c, lambda_count, margin, family)
    mu = np.array([eigenvalue_of(c, family, lam) for lam in lambdas.points])
    [basis] = completeness_bases(family, [lambdas], disk)
    # the first disk.grid_points collocation rows are disk.boundary()
    maxnorm = float(np.abs(basis.collocation[: disk.grid_points]).max())
    verify_pts = basis.verify_points
    member_vals = basis.verification

    blocks = []
    schedule = []
    per_target = []
    leakage = []
    for j, q in enumerate(problem.targets):
        fit = completeness_fit(basis, q, ridge)
        if fit.residual_norm > problem.epsilon / 2:
            raise BudgetExceeded(
                f"target {j}: fit residual {fit.residual_norm:.3e} exceeds "
                f"epsilon/2 = {problem.epsilon / 2:.3e} with "
                f"{lambda_count} lambda points",
                target_index=j,
                residual=fit.residual_norm,
                budget=problem.epsilon / 2,
            )
        w = fit.weights
        mass = float(np.abs(w).sum() * maxnorm)
        n_prev = schedule[-1] if schedule else 0
        n_j = n_prev + _schedule_gap(mass, m_targets, problem.epsilon, margin, gap_factor)
        if n_j > schedule_cap:
            raise ScheduleOverflow(
                f"target {j}: iterate {n_j} exceeds cap {schedule_cap}",
                target_index=j,
                attempted=n_j,
                cap=schedule_cap,
            )
        # exact eigen-coordinate cancellation of the amplified earlier blocks
        v = w - _amplitudes(blocks, mu, n_j)
        blocks.append(OrbitBlock(target_index=j, n=n_j, weights=v))
        schedule.append(n_j)
        # achieved error of A^{n_j} on the partial sum through block j
        amp = _amplitudes(blocks, mu, n_j)
        achieved = float(
            np.abs(member_vals @ amp - evaluate_grid(q, verify_pts)).max()
        )
        mass_full = float(np.abs(v).sum() * maxnorm)
        for k in range(j):
            bound = (1.0 + margin) ** (-(n_j - schedule[k])) * mass_full
            measured = float(
                np.abs(member_vals @ _amplitudes(blocks[j:], mu, schedule[k])).max()
            )
            leakage.append(
                {
                    "block": j,
                    "at_iterate_of_target": k,
                    "bound": bound,
                    "measured": measured,
                }
            )
        per_target.append(
            {
                "target": j,
                "n": n_j,
                "achieved_error": achieved,
                "fit_residual": fit.residual_norm,
                "ridge": fit.ridge,
                "block_mass": mass_full,
                "success": achieved <= problem.epsilon,
            }
        )

    f = linear_combine(list(zip(_amplitudes(blocks, mu, 0), basis.members)))

    report = {
        "per_target": per_target,
        "leakage": leakage,
        "all_targets_met": all(row["success"] for row in per_target),
    }
    return OrbitConstruction(
        f=f,
        schedule=schedule,
        lambdas=lambdas,
        eigenvalues=mu,
        blocks=blocks,
        report=report,
        family=family,
    )


def verify_orbit(
    construction: OrbitConstruction,
    problem: OrbitProblem,
    direct_cap: int = DIRECT_CAP,
) -> list:
    """Two-route check of every scheduled iterate on the full vector.

    Eigenvalue bookkeeping is compared against direct repeated operator
    application (where the iterate is small enough to run), and both are
    compared against the target; rows are data, not judgements.
    """
    c = problem.operator
    mu = construction.eigenvalues
    verify_pts = DiskSpec(problem.radius, VERIFY_POINTS).boundary()
    members = [
        eigenfunction(construction.family, lam)
        for lam in construction.lambdas.points
    ]
    member_vals = np.column_stack([evaluate_grid(s, verify_pts) for s in members])
    rows = []
    for j, (q, n_j) in enumerate(zip(problem.targets, construction.schedule)):
        amp_full = _amplitudes(construction.blocks, mu, n_j)
        amp_partial = _amplitudes(
            [blk for blk in construction.blocks if blk.target_index <= j], mu, n_j
        )
        eig_vals = member_vals @ amp_full
        q_vals = evaluate_grid(q, verify_pts)
        row = {
            "target": j,
            "n": n_j,
            "eigen_error_full": float(np.abs(eig_vals - q_vals).max()),
            "eigen_error_partial": float(
                np.abs(member_vals @ amp_partial - q_vals).max()
            ),
            "method_discrepancy": None,
        }
        if n_j <= direct_cap:
            direct_vals = direct_power_values(c, construction.f, n_j, verify_pts)
            row["method_discrepancy"] = float(
                np.abs(direct_vals - eig_vals).max()
            )
        rows.append(row)
    return rows
