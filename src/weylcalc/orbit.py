"""Explicit approximate orbit construction for A = L(T).

Given polynomial targets q_1..q_m, the constructor produces a truncated
series f and a schedule n_1 < ... < n_m such that A^{n_j} f approximates
q_j on a disk.  f is one coordinate vector x over an expanding lambda set
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
does not depend on the constructor, applies A to the coefficients of f up
to DIRECT_CAP and must agree; an iterate past DIRECT_CAP is unverified,
and the orbit does not succeed (:func:`targets_met`).  It powers L(T)
through the banded core of :mod:`weylcalc.operators` exactly, on
Gaussian integers, and rounds once, so it carries no precision setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ScheduleOverflow, SearchExhausted
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

#: direct operator-power verification is run only up to this iterate
DIRECT_CAP = 40

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
    """Targets-and-budget statement for the orbit constructor."""

    operator: CompositeOperator
    family: EigenFamily
    targets: list
    radius: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.operator.poly_degree < 1:
            raise ValueError("L must be non-constant")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be finite and positive")
        if not self.targets:
            raise ValueError("at least one target is required")
        for q in self.targets:
            nonzero = np.flatnonzero(q.coeffs)
            if nonzero.size and nonzero[-1] > 32:
                raise ValueError("targets must be polynomials of degree <= 32")


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


def _amplitudes(coords: np.ndarray, mu: np.ndarray, n: int) -> np.ndarray:
    """Eigen-coordinates x mu^n of A^n f; the exponent is a float, so
    every caller rounds the powers the same way."""
    return coords * mu ** float(n)


def select_expanding_lambdas(
    c: CompositeOperator, count: int, margin: float, family: EigenFamily
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
        raise ValueError(f"1 + margin must exceed 1, got margin {margin}")
    if count < 1:
        raise ValueError("count must be >= 1")
    level = 1.0 + margin
    thetas = [2 * math.pi * i / count for i in range(count)]
    directions = np.array([complex(math.cos(t), math.sin(t)) for t in thetas])

    def reached(r) -> np.ndarray:
        # np.hypot rounds |mu| as abs() does on a Python complex
        mu = eigenvalue_of(c, family, r * directions)
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
    c = problem.operator
    family = problem.family
    targets = problem.targets
    m_targets = len(targets)
    budget = problem.epsilon / 2
    lambdas = select_expanding_lambdas(c, lambda_count * m_targets, margin, family)
    mu = eigenvalue_of(c, family, lambdas.points)
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
        f=linear_combine(list(zip(x, basis.members))),
        schedule=schedule,
        basis=basis,
        eigenvalues=mu,
        coords=x,
        report=report,
    )


def targets_met(rows: list, epsilon: float) -> bool:
    """Whether the verified orbit succeeds: at every scheduled iterate the
    full vector is within epsilon of its target and the direct route agrees
    with the eigen-sum within epsilon / 10.  An iterate past DIRECT_CAP has
    no direct route, so it is unverified and the orbit does not succeed."""
    return all(
        row["eigen_error_full"] <= epsilon
        and row["method_discrepancy"] is not None
        and row["method_discrepancy"] <= epsilon / 10
        for row in rows
    )


def verify_orbit(construction: OrbitConstruction, problem: OrbitProblem) -> list:
    """Two-route check of every scheduled iterate on the full vector.

    The eigen-sum on the constructor's basis is compared against direct
    repeated operator application (for iterates up to DIRECT_CAP; a later
    row has ``method_discrepancy`` None), and both against the target;
    rows are data, not judgements.
    """
    c = problem.operator
    mu = construction.eigenvalues
    basis = construction.basis
    verify_pts = basis.verify_points
    rows = []
    for j, (q, n_j) in enumerate(zip(problem.targets, construction.schedule)):
        eig_vals = basis.verification @ _amplitudes(construction.coords, mu, n_j)
        row = {
            "target": j,
            "n": n_j,
            "eigen_error_full": float(
                np.abs(eig_vals - evaluate_grid(q, verify_pts)).max()
            ),
            "method_discrepancy": None,
        }
        if n_j <= DIRECT_CAP:
            direct_vals = direct_power_values(c, construction.f, n_j, verify_pts)
            row["method_discrepancy"] = float(
                np.abs(direct_vals - eig_vals).max()
            )
        rows.append(row)
    return rows
