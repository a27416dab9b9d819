"""Eigenfunctions of a Weyl operator and completeness experiments.

An :class:`EigenFamily` is worked out from its operator alone: T = M - a z
I, or a polynomial L(T).  For a != 0 the kernel generator f0 of T (the
first solution of :func:`~weylcalc.kernel_solver.kernel_basis`) gives the
shifted copies f_lambda(z) = f0(z + lambda), with T f_lambda = a lambda
f_lambda.  For a = 0 the operator is a convolution operator and the
exponentials e^{lambda z} take over with eigenvalue L(lambda), L the
characteristic polynomial of M.  A polynomial L(T) has eigenvalue L(mu) at
an eigenfunction of T with eigenvalue mu.  :func:`eigenvalue_of` is the
one map from lambda to the eigenvalue, of T or of L(T), and
:func:`_member_coeffs` the one builder of the members' coefficients; the
eigen-relation checks, the completeness bases and the orbit constructor
all read them.  The checks :func:`eigen_residual` (of T) and
:func:`composite_eigencheck` (of the family's operator) take a scalar
lambda or a 1-d array of them: an array's members are built, acted on and
evaluated in one batch, each residual with the bits of its one-at-a-time
value.

The completeness side is probed numerically: a ridge-regularized least
squares fit of a target in span{f_lambda} over a collocation grid, with
the residual always re-measured as a true sup norm on a denser
verification circle (never the regularized objective).  The work that
does not depend on the target is split off: :func:`completeness_bases`
builds one :class:`CompletenessBasis` (member rows, collocation and
verification matrices, SVD) per lambda set, translating the distinct
lambdas of all the sets in one batch and evaluating them once per distinct
point, and :func:`completeness_fit` solves for one target on a basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accel import eval_grid, translate_kernel
from .errors import (
    KernelResidualTooLarge,
    MalformedSpec,
    NonFiniteCoefficient,
    SingularSystem,
)
from .kernel_solver import kernel_basis
from .operators import (
    KERNEL_MEMBERSHIP_TOL,
    CompositeOperator,
    WeylOperator,
    truncated_image,
)
from .series import (
    DEFAULT_ORDER,
    DiskSpec,
    TaylorSeries,
    UNIT_DISK,
    evaluate_grid,
    exponential_rows,
    unfused_product,
)

#: ridge escalation ladder for ill-conditioned translate systems
RIDGE_DEFAULT = 1e-10
RIDGE_MAX = 1e-4

#: verification circle density for the reported sup-norm residual
VERIFY_POINTS = 128


def _weyl(op) -> WeylOperator:
    """The Weyl operator T of op = T or L(T)."""
    return op.base if isinstance(op, CompositeOperator) else op


@dataclass(frozen=True, eq=False)
class EigenFamily:
    """The eigenfunctions f_lambda of ``op`` = T or L(T), truncated to
    ``n_terms`` coefficients, worked out from T alone.

    For a != 0 they are the translates f0(z + lambda) of ``f0``, the first
    solution of ``kernel_basis(t, n_terms)``; KernelResidualTooLarge when
    its residual exceeds KERNEL_MEMBERSHIP_TOL.  For a = 0 they are the
    exponentials e^{lambda z}, and ``f0`` is None.
    """

    op: WeylOperator | CompositeOperator
    n_terms: int = DEFAULT_ORDER
    f0: TaylorSeries | None = field(init=False, default=None)

    def __post_init__(self):
        if self.kind == "translate":
            basis = kernel_basis(self.t, self.n_terms)
            if basis.residuals[0] > KERNEL_MEMBERSHIP_TOL:
                raise KernelResidualTooLarge(
                    f"generator kernel residual {basis.residuals[0]:.3e} exceeds "
                    f"{KERNEL_MEMBERSHIP_TOL:.1e}"
                )
            object.__setattr__(self, "f0", basis.solutions[0])

    @property
    def t(self) -> WeylOperator:
        """The Weyl operator T of ``op``."""
        return _weyl(self.op)

    @property
    def kind(self) -> str:
        """'translate' when a != 0, else 'exponential'."""
        return "translate" if self.t.a != 0 else "exponential"


@dataclass(frozen=True)
class LambdaSet:
    """Finite sample of distinct shift parameters."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.points, dtype=np.complex128))
        if arr.size != np.unique(arr).size:
            raise MalformedSpec("lambda points must be distinct")
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


def eigenfunction(family: EigenFamily, lam: complex) -> TaylorSeries:
    """f_lambda: the row of :func:`_member_coeffs` at ``lam``."""
    return TaylorSeries(_member_coeffs(family, [lam])[0])


def _reach(lams: np.ndarray) -> str:
    top = np.abs(lams).max(initial=0)
    return f"at |lambda| up to {top:g} leave the double range"


def _member_coeffs(family: EigenFamily, lams: np.ndarray) -> np.ndarray:
    """Coefficient rows of f_lambda for a 1-d array of lambdas, ``(K, N)``.

    The batched translate of f0 for a translate family (f0 itself at
    lambda = 0), :func:`exponential_rows` for an exponential one; row k
    holds the bits of ``translate(family.f0, lams[k])``, or of the
    exponential built alone.  A row past the double range is
    NonFiniteCoefficient.
    """
    lams = np.asarray(lams, dtype=np.complex128)
    if family.kind == "translate":
        rows = translate_kernel(family.f0.coeffs, lams)
        rows[lams == 0] = family.f0.coeffs
    else:
        rows = exponential_rows(lams, family.n_terms)
    _require_finite(rows, f"eigenfunction coefficients {_reach(lams)}")
    return rows


def eigenvalue_of(op, lam):
    """Eigenvalue of op = T or L(T) at f_lambda: for T, a*lambda on a
    translate (a != 0) or L_M(lambda) on e^{lambda z} (a = 0); for L(T),
    L of it.  Elementwise when ``lam`` is an array."""
    t = _weyl(op)
    mu = unfused_product(t.a, lam) if t.a != 0 else t.m.characteristic(lam)
    return op.eigenvalue(mu) if isinstance(op, CompositeOperator) else mu


def _require_finite(values: np.ndarray, message: str) -> None:
    """NonFiniteCoefficient(message) unless every value is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteCoefficient(message)


def _relation_residuals(family: EigenFamily, op, lam, disk: DiskSpec):
    """Sup norms on the disk of op f_lambda - mu f_lambda, op = family.t or
    family.op and mu its eigenvalue at f_lambda, for every lambda at once.

    The member rows are built in one batch, acted on by the banded core
    and combined as ``linear_combine([(1.0, op f), (-mu, f)])`` combines
    one member, so each entry holds the bits of the one-at-a-time
    residual.  A scalar ``lam`` gives a float, a 1-d array an array.
    """
    scalar = np.ndim(lam) == 0
    lams = np.asarray(lam, dtype=np.complex128).reshape(-1)
    rows = _member_coeffs(family, lams)
    image = truncated_image(op, rows)
    mu = eigenvalue_of(op, lams)
    combined = np.zeros(image.shape, dtype=np.complex128)
    combined += image
    combined += -mu[:, None] * rows[:, : image.shape[1]]
    _require_finite(
        combined, f"coefficients of op f_lambda - mu f_lambda {_reach(lams)}"
    )
    sup = np.abs(eval_grid(combined, disk.boundary())).max(axis=0)
    return float(sup[0]) if scalar else sup


def eigen_residual(
    family: EigenFamily, lam, disk: DiskSpec = UNIT_DISK
) -> float | np.ndarray:
    """Sup norm of T f_lambda - mu f_lambda on the disk, T = family.t;
    elementwise when ``lam`` is an array."""
    return _relation_residuals(family, family.t, lam, disk)


def composite_eigencheck(
    family: EigenFamily, lam, disk: DiskSpec = UNIT_DISK
) -> float | np.ndarray:
    """Sup norm of L(T) f_lambda - L(mu) f_lambda on the disk, L(T) =
    family.op; elementwise when ``lam`` is an array."""
    return _relation_residuals(family, family.op, lam, disk)


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

    ``rows`` holds the members' coefficients, one row per lambda.  For the
    disk the basis was built on, ``collocation`` and ``verification`` hold
    the members' values on ``points`` = ``collocation_points(disk)`` and
    on the VERIFY_POINTS circle, one column per lambda; ``svd`` is the thin
    SVD of ``collocation``, or None with the reason in ``svd_failure`` when
    LAPACK gave up.  The first ``disk.grid_points`` rows of ``collocation``
    are ``disk.boundary()``.
    """

    lambdas: LambdaSet
    rows: np.ndarray
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
    eigenfunctions in one batch, and evaluated in one call at the distinct
    points of both grids, told apart by their bits (the boundary circle is
    every other point of the verification circle); a set's rows and
    matrices are C-contiguous gathers of the shared ones, so they hold the
    same bits as those built for that set alone.
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
    grid = np.concatenate([pts, verify_pts])
    _, first, at = np.unique(grid.view("V16"), return_index=True, return_inverse=True)
    at_colloc, at_verify = np.split(at, [pts.size])
    values = eval_grid(rows, grid[first])
    # an overflow would reach the SVD as a failure to converge
    _require_finite(values, f"member values on the disk of radius {disk.radius:g} "
                            "leave the double range")
    bases = []
    for lams in lambda_sets:
        idx = [column[complex(lam)][0] for lam in lams.points]
        a_mat = np.ascontiguousarray(values[np.ix_(at_colloc, idx)])
        verification = np.ascontiguousarray(values[np.ix_(at_verify, idx)])
        set_rows = rows[idx]
        for matrix in (set_rows, a_mat, verification):
            matrix.setflags(write=False)
        try:
            svd, failure = np.linalg.svd(a_mat, full_matrices=False), ""
        except np.linalg.LinAlgError as exc:
            svd, failure = None, f"collocation SVD failed: {exc}"
        bases.append(
            CompletenessBasis(
                lambdas=lams,
                rows=set_rows,
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
        raise MalformedSpec("ridge must be >= 0")
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
