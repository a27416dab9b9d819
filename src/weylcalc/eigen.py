"""Translate eigenfunctions and completeness experiments.

For f0 in ker T and T = M - a z I with a != 0, the shifted copies
f_lambda(z) = f0(z + lambda) satisfy T f_lambda = a lambda f_lambda.  For
a = 0 the operator is a convolution operator and the exponentials
e^{lambda z} take over with eigenvalue L(lambda), L the characteristic
polynomial of M.  A polynomial L(T) has eigenvalue L(mu) at an
eigenfunction of T with eigenvalue mu.  :func:`eigenvalue_of` is the one
map from lambda to the eigenvalue, of T or of L(T); the eigen-relation
checks and the orbit constructor all read it.

The completeness side is probed numerically: a ridge-regularized least
squares fit of a target in span{f_lambda} over a collocation grid, with
the residual always re-measured as a true sup norm on a denser
verification circle (never the regularized objective).  The work that
does not depend on the target is split off: :func:`completeness_bases`
builds one :class:`CompletenessBasis` (members, collocation and
verification matrices, SVD) per lambda set, translating and evaluating
every distinct lambda of all the sets once, and
:func:`completeness_fit` solves for one target on a basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelResidualTooLarge, SingularSystem
from .kernel_solver import KERNEL_MEMBERSHIP_TOL, kernel_residual
from .operators import CompositeOperator, WeylOperator, apply_composite, apply_weyl
from .series import (
    DiskSpec,
    TaylorSeries,
    UNIT_DISK,
    disk_sup_norm,
    evaluate_grid,
    exponential_series,
    linear_combine,
    translate,
)

#: ridge escalation ladder for ill-conditioned translate systems
RIDGE_DEFAULT = 1e-10
RIDGE_MAX = 1e-4

#: verification circle density for the reported sup-norm residual
VERIFY_POINTS = 128


@dataclass(frozen=True)
class EigenFamily:
    """Eigenfunction family of a Weyl operator.

    kind 'translate' shifts the kernel generator f0; kind 'exponential'
    (a = 0) uses e^{lambda z} truncations of ``n_terms`` coefficients.
    """

    f0: TaylorSeries | None
    a: complex
    kind: str = "translate"
    n_terms: int = 128

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        if self.kind not in ("translate", "exponential"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "translate" and self.f0 is None:
            raise ValueError("translate family needs a kernel generator")


@dataclass(frozen=True)
class LambdaSet:
    """Finite sample of distinct shift parameters."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.points, dtype=np.complex128))
        if arr.size != np.unique(arr).size:
            raise ValueError("lambda points must be distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class FitReport:
    """Outcome of a regularized eigen-span fit."""

    weights: np.ndarray
    residual_norm: float
    condition_diag: float
    ridge: float


def family_from_kernel(
    t: WeylOperator, f0: TaylorSeries, disk: DiskSpec = UNIT_DISK
) -> EigenFamily:
    """Validated translate family for a != 0 (kernel membership enforced)."""
    res = kernel_residual(t, f0, disk)
    if res > KERNEL_MEMBERSHIP_TOL:
        raise KernelResidualTooLarge(
            f"generator kernel residual {res:.3e} exceeds "
            f"{KERNEL_MEMBERSHIP_TOL:.1e}"
        )
    return EigenFamily(f0=f0, a=t.a, kind="translate")


def exponential_family(n_terms: int = 128) -> EigenFamily:
    """a = 0 family of exponential eigenfunctions."""
    return EigenFamily(f0=None, a=0.0, kind="exponential", n_terms=n_terms)


def eigenfunction(family: EigenFamily, lam: complex) -> TaylorSeries:
    if family.kind == "translate":
        return translate(family.f0, lam)
    return exponential_series(lam, family.n_terms)


def eigenvalue_of(op, family: EigenFamily, lam: complex) -> complex:
    """Eigenvalue of op = T or L(T) at f_lambda: for T, a*lambda on a
    translate or L_M(lambda) on e^{lambda z} (a = 0); for L(T), L of it."""
    t = op.base if isinstance(op, CompositeOperator) else op
    mu = t.a * lam if family.kind == "translate" else t.m.characteristic(lam)
    return op.eigenvalue(mu) if isinstance(op, CompositeOperator) else mu


def eigen_residual(
    t: WeylOperator,
    family: EigenFamily,
    lam: complex,
    disk: DiskSpec = UNIT_DISK,
) -> float:
    """Sup norm of T f_lambda - mu f_lambda on the disk."""
    f_lam = eigenfunction(family, lam)
    mu = eigenvalue_of(t, family, lam)
    return disk_sup_norm(
        linear_combine([(1.0, apply_weyl(t, f_lam)), (-mu, f_lam)]), disk
    )


def composite_eigencheck(
    c: CompositeOperator,
    family: EigenFamily,
    lam: complex,
    disk: DiskSpec = UNIT_DISK,
) -> float:
    """Sup norm of L(T) f_lambda - L(mu) f_lambda on the disk."""
    f_lam = eigenfunction(family, lam)
    mu = eigenvalue_of(c, family, lam)
    return disk_sup_norm(
        linear_combine([(1.0, apply_composite(c, f_lam)), (-mu, f_lam)]), disk
    )


# ---------------------------------------------------------------------------
# lambda presets


def inverse_integer_lambdas(count: int) -> LambdaSet:
    """{1/k, k=1..count}: accumulates at 0."""
    pts = 1.0 / np.arange(1, count + 1)
    return LambdaSet(pts)


def segment_lambdas(count: int, length: float = 1.0) -> LambdaSet:
    """Equispaced points on (0, length]: every point accumulates in the
    continuum limit; a finite approximation thereof."""
    pts = length * np.arange(1, count + 1) / count
    return LambdaSet(pts)


def random_disk_lambdas(count: int, seed: int = 0) -> LambdaSet:
    """Gaussian samples scaled into the unit disk (seeded)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    pts = z / (1.0 + np.abs(z))
    return LambdaSet(pts)


# ---------------------------------------------------------------------------
# completeness fitting


def collocation_points(disk: DiskSpec) -> np.ndarray:
    """Boundary circle plus concentric interior circles.

    Pure boundary fitting under-constrains the interior behaviour of
    ill-conditioned exponential sums, hence the interior rings.
    """
    pts = [disk.boundary()]
    for frac in (0.25, 0.5, 0.75):
        ring = DiskSpec(frac * disk.radius, 32)
        pts.append(ring.boundary())
    return np.concatenate(pts)


@dataclass(frozen=True, eq=False)
class CompletenessBasis:
    """Everything a fit on one lambda set shares across its targets.

    For the disk the basis was built on, ``collocation`` and
    ``verification`` hold the members' values on ``points`` =
    ``collocation_points(disk)`` and on the VERIFY_POINTS circle, one
    column per lambda; ``svd`` is the thin SVD of ``collocation``, or None
    with the reason in ``svd_failure`` when LAPACK gave up.  The first
    ``disk.grid_points`` rows of ``collocation`` are ``disk.boundary()``.
    """

    lambdas: LambdaSet
    members: list
    points: np.ndarray
    collocation: np.ndarray
    verify_points: np.ndarray
    verification: np.ndarray
    svd: tuple | None
    svd_failure: str = ""


def completeness_bases(
    family: EigenFamily, lambda_sets, disk: DiskSpec = UNIT_DISK
) -> list:
    """One :class:`CompletenessBasis` per lambda set, in order.

    Each distinct lambda of the union of the sets is turned into its
    eigenfunction and evaluated on both grids exactly once; a set's
    matrices are C-contiguous column gathers of the shared ones, so they
    hold the same bits as matrices built for that set alone.
    """
    pts = collocation_points(disk)
    verify_pts = DiskSpec(disk.radius, VERIFY_POINTS).boundary()
    pts.setflags(write=False)
    verify_pts.setflags(write=False)
    column = {}
    for lams in lambda_sets:
        for lam in lams.points:
            column.setdefault(complex(lam), (len(column), lam))
    members = [eigenfunction(family, lam) for _, lam in column.values()]
    colloc_all = np.column_stack([evaluate_grid(s, pts) for s in members])
    verify_all = np.column_stack([evaluate_grid(s, verify_pts) for s in members])
    bases = []
    for lams in lambda_sets:
        idx = [column[complex(lam)][0] for lam in lams.points]
        a_mat = np.ascontiguousarray(colloc_all[:, idx])
        verification = np.ascontiguousarray(verify_all[:, idx])
        a_mat.setflags(write=False)
        verification.setflags(write=False)
        try:
            svd, failure = np.linalg.svd(a_mat, full_matrices=False), ""
        except np.linalg.LinAlgError as exc:
            svd, failure = None, f"collocation SVD failed: {exc}"
        bases.append(
            CompletenessBasis(
                lambdas=lams,
                members=[members[i] for i in idx],
                points=pts,
                collocation=a_mat,
                verify_points=verify_pts,
                verification=verification,
                svd=svd,
                svd_failure=failure,
            )
        )
    return bases


def completeness_fit(
    basis: CompletenessBasis,
    target: TaylorSeries,
    ridge: float = RIDGE_DEFAULT,
) -> FitReport:
    """Ridge-regularized fit of target in span{f_lambda} on the disk.

    Escalates the ridge by factors of 10 up to RIDGE_MAX when the normal
    system is numerically singular, and reports honest failure beyond
    that.  The reported residual is the true sup norm on a denser
    verification circle.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if basis.svd is None:
        raise SingularSystem(basis.svd_failure)
    b = evaluate_grid(target, basis.points)
    u, s, vh = basis.svd
    beta = u.conj().T @ b
    if ridge > 0:
        # Tikhonov through SVD filter factors, escalating on breakdown
        level = ridge
        while True:
            w = vh.conj().T @ (beta * s / (s * s + level))
            if np.all(np.isfinite(w.view(np.float64))):
                break
            if level * 10 <= RIDGE_MAX:
                level *= 10
            else:
                raise SingularSystem(
                    f"regularized system stayed singular up to ridge "
                    f"{RIDGE_MAX:.1e} for |Lambda| = {len(basis.lambdas)}"
                )
        cond = float((s[0] ** 2 + level) / (s[-1] ** 2 + level))
    else:
        # ridge 0: truncated SVD, cutoff auto-selected on the collocation
        # sup residual (the reported residual still comes from the denser
        # verification circle below)
        level = 0.0
        best = None
        for cut in [0.0] + [10.0 ** e for e in range(-15, -7)]:
            keep = s > cut * s[0]
            if not np.any(keep):
                continue
            cand = vh.conj().T[:, keep] @ (beta[keep] / s[keep])
            if not np.all(np.isfinite(cand.view(np.float64))):
                continue
            sel = float(np.abs(basis.collocation @ cand - b).max())
            if best is None or sel < best[0]:
                best = (sel, cand, float(s[0] / s[keep].min()))
        if best is None:
            raise SingularSystem(
                f"no usable truncated-SVD solution for |Lambda| = "
                f"{len(basis.lambdas)}"
            )
        _, w, cond = best
    fitted = basis.verification @ w
    resid = float(np.abs(fitted - evaluate_grid(target, basis.verify_points)).max())
    return FitReport(
        weights=w,
        residual_norm=resid,
        condition_diag=cond,
        ridge=level,
    )
