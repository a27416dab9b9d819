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
the distinct lambdas of all the sets once, in one batch, and
:func:`completeness_fit` solves for one target on a basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import eval_grid, translate_kernel
from .errors import KernelResidualTooLarge, SingularSystem
from .kernel_solver import kernel_residual
from .operators import (
    KERNEL_MEMBERSHIP_TOL,
    CompositeOperator,
    WeylOperator,
    apply_composite,
    apply_weyl,
)
from .series import (
    DEFAULT_ORDER,
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
    """Eigenfunction family of a Weyl operator, given by its generator.

    A kernel generator ``f0`` (a != 0) gives the translate family
    f0(z + lambda); ``f0`` None (a = 0) gives the exponential family of
    e^{lambda z} truncations of ``n_terms`` coefficients, by default
    series.DEFAULT_ORDER.
    """

    f0: TaylorSeries | None
    n_terms: int = DEFAULT_ORDER

    @property
    def kind(self) -> str:
        """'translate' when there is a generator f0, else 'exponential'."""
        return "translate" if self.f0 is not None else "exponential"


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


def family_from_kernel(t: WeylOperator, f0: TaylorSeries) -> EigenFamily:
    """Validated translate family for a != 0: the unit-disk kernel residual
    of f0 must not exceed KERNEL_MEMBERSHIP_TOL."""
    res = kernel_residual(t, f0)
    if res > KERNEL_MEMBERSHIP_TOL:
        raise KernelResidualTooLarge(
            f"generator kernel residual {res:.3e} exceeds "
            f"{KERNEL_MEMBERSHIP_TOL:.1e}"
        )
    return EigenFamily(f0)


def exponential_family(n_terms: int = DEFAULT_ORDER) -> EigenFamily:
    """a = 0 family of exponential eigenfunctions."""
    return EigenFamily(None, n_terms)


def eigenfunction(family: EigenFamily, lam: complex) -> TaylorSeries:
    if family.kind == "translate":
        return translate(family.f0, lam)
    return exponential_series(lam, family.n_terms)


def _product(x, y):
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


def _member_coeffs(family: EigenFamily, lams: np.ndarray) -> np.ndarray:
    """Coefficient rows of f_lambda for a 1-d array of lambdas, ``(K, N)``.

    Row k holds the bits of ``eigenfunction(family, lams[k])``: the
    batched translate for a translate family (f0 itself at lambda = 0),
    :func:`exponential_series` per lambda for an exponential one.
    """
    lams = np.asarray(lams, dtype=np.complex128)
    if family.kind == "translate":
        rows = translate_kernel(family.f0.coeffs, lams)
        rows[lams == 0] = family.f0.coeffs
        return rows
    return np.array(
        [exponential_series(lam, family.n_terms).coeffs for lam in lams],
        dtype=np.complex128,
    ).reshape(-1, family.n_terms)


def eigenvalue_of(op, family: EigenFamily, lam):
    """Eigenvalue of op = T or L(T) at f_lambda: for T, a*lambda on a
    translate or L_M(lambda) on e^{lambda z} (a = 0); for L(T), L of it.
    Elementwise when ``lam`` is an array."""
    t = op.base if isinstance(op, CompositeOperator) else op
    mu = _product(t.a, lam) if family.kind == "translate" else t.m.characteristic(lam)
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


def segment_lambdas(count: int) -> LambdaSet:
    """Equispaced points on (0, 1]: every point accumulates in the
    continuum limit; a finite approximation thereof."""
    pts = np.arange(1, count + 1) / count
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

    The distinct lambdas of the union of the sets are turned into their
    eigenfunctions in one batch and evaluated on each grid in one call, so
    every lambda is translated and evaluated exactly once; a set's
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
    lams = np.array([lam for _, lam in column.values()], dtype=np.complex128)
    rows = _member_coeffs(family, lams)
    members = [TaylorSeries(row) for row in rows]
    colloc_all = eval_grid(rows, pts)
    verify_all = eval_grid(rows, verify_pts)
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


def regularized_solve(a_mat: np.ndarray, b: np.ndarray, ridge: float, svd=None):
    """Ridge-regularized least squares a_mat @ w ~ b.

    ``svd`` is the thin SVD of ``a_mat`` when the caller already has it.
    A positive ridge is Tikhonov through SVD filter factors, escalated by
    factors of 10 up to RIDGE_MAX when the system is numerically
    singular; ridge 0 is a truncated SVD whose cutoff is auto-selected on
    the sup residual over the rows of ``a_mat``.  Returns the weights, the
    condition estimate and the ridge actually used.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if svd is None:
        try:
            svd = np.linalg.svd(a_mat, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"collocation SVD failed: {exc}") from exc
    u, s, vh = svd
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
                    f"{RIDGE_MAX:.1e} for |Lambda| = {a_mat.shape[1]}"
                )
        return w, float((s[0] ** 2 + level) / (s[-1] ** 2 + level)), level
    # ridge 0: truncated SVD, cutoff auto-selected on the sup residual
    best = None
    for cut in [0.0] + [10.0 ** e for e in range(-15, -7)]:
        keep = s > cut * s[0]
        if not np.any(keep):
            continue
        cand = vh.conj().T[:, keep] @ (beta[keep] / s[keep])
        if not np.all(np.isfinite(cand.view(np.float64))):
            continue
        sel = float(np.abs(a_mat @ cand - b).max())
        if best is None or sel < best[0]:
            best = (sel, cand, float(s[0] / s[keep].min()))
    if best is None:
        raise SingularSystem(
            f"no usable truncated-SVD solution for |Lambda| = {a_mat.shape[1]}"
        )
    _, w, cond = best
    return w, cond, 0.0


def completeness_fit(
    basis: CompletenessBasis,
    target: TaylorSeries,
    ridge: float = RIDGE_DEFAULT,
) -> FitReport:
    """Ridge-regularized fit of target in span{f_lambda} on the disk.

    The solve is :func:`regularized_solve` on the collocation matrix; the
    reported residual is the true sup norm on the denser verification
    circle (never the regularized objective, nor the collocation residual
    that picks a truncated-SVD cutoff).
    """
    if basis.svd is None:
        raise SingularSystem(basis.svd_failure)
    w, cond, level = regularized_solve(
        basis.collocation, evaluate_grid(target, basis.points), ridge, basis.svd
    )
    fitted = basis.verification @ w
    resid = float(np.abs(fitted - evaluate_grid(target, basis.verify_points)).max())
    return FitReport(
        weights=w,
        residual_norm=resid,
        condition_diag=cond,
        ridge=level,
    )
