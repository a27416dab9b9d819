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
:func:`composite_eigencheck` (of the family's operator) take a 1-d array
of lambdas, whose members are built, acted on and evaluated in one batch,
each residual with the bits of its one-at-a-time value.

The completeness side is probed numerically: a ridge-regularized least
squares fit of a target in span{f_lambda} over a collocation grid, with
the residual always re-measured as a true sup norm on a denser
verification circle (never the regularized objective).  The work that
does not depend on the target is split off: :func:`completeness_bases`
builds one :class:`CompletenessBasis` (member rows, circles, collocation
and verification matrices, and the SVD that the first fit works out, from
which the SVD of a stack of scaled copies of the collocation matrix
follows by that of a small core: :meth:`CompletenessBasis.stacked`) per
lambda set, translating the distinct lambdas of all the sets in one batch
and evaluating them on each circle by one inverse FFT
(:func:`~weylcalc.series.evaluate_grid`), and :func:`completeness_fit`
fits a ``(T, P)`` stack of targets, given by their values on the basis's
circles, which every basis of one disk shares, in one solve.  A positive
ridge is one Tikhonov solve at that ridge, ridge 0 a truncated SVD with
a cutoff per target (:func:`regularized_solve`).  A stack's products are
taken one matrix-vector product per target, so a target has the bits of
its own fit, and a target whose fit fails gets its own error while the
others are fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .accel import translate_kernel
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

#: Tikhonov ridge of the completeness fits and of the orbit's stacked solve
RIDGE_DEFAULT = 1e-10

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
        srt = np.sort(arr)  # equal points (0.0 and -0.0 too) fall side by side
        if np.any(srt[1:] == srt[:-1]):
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


def _relation_residuals(family: EigenFamily, op, lams, disk: DiskSpec):
    """Sup norms on the disk of op f_lambda - mu f_lambda, op = family.t or
    family.op and mu its eigenvalue at f_lambda, for a 1-d array of lambdas.

    The member rows are built in one batch, acted on by the banded core
    and combined as ``linear_combine([(1.0, op f), (-mu, f)])`` combines
    one member, so each entry holds the bits of the one-at-a-time
    residual.
    """
    lams = np.asarray(lams, dtype=np.complex128)
    rows = _member_coeffs(family, lams)
    image = truncated_image(op, rows)
    mu = eigenvalue_of(op, lams)
    combined = np.zeros(image.shape, dtype=np.complex128)
    combined += image
    combined += -mu[:, None] * rows[:, : image.shape[1]]
    _require_finite(
        combined, f"coefficients of op f_lambda - mu f_lambda {_reach(lams)}"
    )
    return np.abs(evaluate_grid(combined, disk)).max(axis=-1)


def eigen_residual(family: EigenFamily, lams, disk: DiskSpec = UNIT_DISK) -> np.ndarray:
    """Sup norm of T f_lambda - mu f_lambda on the disk, T = family.t, at
    each of a 1-d array of lambdas."""
    return _relation_residuals(family, family.t, lams, disk)


def composite_eigencheck(
    family: EigenFamily, lams, disk: DiskSpec = UNIT_DISK
) -> np.ndarray:
    """Sup norm of L(T) f_lambda - L(mu) f_lambda on the disk, L(T) =
    family.op, at each of a 1-d array of lambdas."""
    return _relation_residuals(family, family.op, lams, disk)


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


def collocation_circles(disk: DiskSpec) -> tuple:
    """The disk's boundary circle and three concentric interior rings.

    Pure boundary fitting under-constrains the interior behaviour of
    ill-conditioned exponential sums, hence the interior rings.
    """
    rings = tuple(DiskSpec(frac * disk.radius, 32) for frac in (0.25, 0.5, 0.75))
    return (disk,) + rings


@dataclass(frozen=True, eq=False)
class CompletenessBasis:
    """Everything a fit on one lambda set shares across its targets.

    ``rows`` holds the members' coefficients, one row per lambda.
    ``circles`` are the collocation circles of the disk the basis was
    built on, ``collocation_circles(disk)``, and last its VERIFY_POINTS
    verification circle; ``collocation`` and ``verification`` hold the
    members' values on the two parts, one column per lambda.
    """

    lambdas: LambdaSet
    rows: np.ndarray
    circles: tuple
    collocation: np.ndarray
    verification: np.ndarray

    @cached_property
    def svd(self) -> tuple:
        """Thin SVD of ``collocation``, worked out the first time a fit
        needs it; SingularSystem when LAPACK gives up."""
        return _svd(self.collocation)

    def stacked(self, scales: list) -> tuple:
        """The stack S = [E diag(s_1); ...; E diag(s_m)] of the collocation
        matrix E, one scaled copy per 1-d array s_j of column scales, and
        its thin SVD, from the one SVD of E.

        With E = U Sigma V^H, S = (I_m kron U) C for the small core C =
        [Sigma V^H diag(s_j)]_j, so one SVD U_C s_C V_C^H of C gives S's
        as ((I_m kron U) U_C, s_C, V_C^H), and no tall matrix is factored.
        """
        u, s, vh = self.svd
        sigma_vh = s[:, None] * vh
        core_u, core_s, core_vh = _svd(np.vstack([sigma_vh * sj for sj in scales]))
        lifted = np.vstack(u @ core_u.reshape(len(scales), s.size, -1))
        matrix = np.vstack([self.collocation * sj for sj in scales])
        return matrix, (lifted, core_s, core_vh)


def completeness_bases(
    family: EigenFamily, lambda_sets, disk: DiskSpec = UNIT_DISK
) -> list:
    """One :class:`CompletenessBasis` per lambda set, in order, all on the
    same circles.

    The distinct lambdas of the union of the sets are turned into their
    eigenfunctions in one batch and evaluated in one call; a set's rows
    and matrices are C-contiguous gathers of the shared ones, so they hold
    the same bits as those built for that set alone.
    """
    circles = collocation_circles(disk) + (DiskSpec(disk.radius, VERIFY_POINTS),)
    column = {}
    for lams in lambda_sets:
        for lam in lams.points:
            column.setdefault(complex(lam), (len(column), lam))
    lams = np.array([lam for _, lam in column.values()], dtype=np.complex128)
    rows = _member_coeffs(family, lams)
    values = evaluate_grid(rows, circles)
    # an overflow would reach the SVD as a failure to converge
    _require_finite(values, f"member values on the disk of radius {disk.radius:g} "
                            "leave the double range")
    bases = []
    for lams in lambda_sets:
        idx = [column[complex(lam)][0] for lam in lams.points]
        a_mat = np.ascontiguousarray(values[idx, :-VERIFY_POINTS].T)
        verification = np.ascontiguousarray(values[idx, -VERIFY_POINTS:].T)
        set_rows = rows[idx]
        for matrix in (set_rows, a_mat, verification):
            matrix.setflags(write=False)
        bases.append(CompletenessBasis(lams, set_rows, circles, a_mat, verification))
    return bases


def _svd(a_mat: np.ndarray) -> tuple:
    """Thin SVD of ``a_mat``; SingularSystem when LAPACK gives up."""
    try:
        return np.linalg.svd(a_mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"collocation SVD failed: {exc}") from exc


def _rowwise(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Each row of the ``(T, n)`` stack ``x`` times ``matrix``, one
    matrix-vector product per row on a contiguous row, so that a row's
    bits depend neither on the other rows nor on the stack's layout (one
    matrix product would let BLAS block the sums by the stack's shape,
    and a strided row takes another BLAS path)."""
    return np.matmul(np.ascontiguousarray(x)[:, None, :], matrix)[:, 0]


def regularized_solve(a_mat: np.ndarray, b: np.ndarray, ridge: float, svd=None):
    """Ridge-regularized least squares a_mat @ w ~ b for each row of the
    ``(T, M)`` stack ``b`` of right-hand sides.

    ``svd`` is the thin SVD of ``a_mat`` when the caller already has it.
    A positive ridge is one Tikhonov solve at that ridge, through SVD
    filter factors; ridge 0 is a truncated SVD whose cutoff, among those
    with finite weights, is auto-selected per row on the sup residual over
    the rows of ``a_mat``.  Gives the ``(T, K)`` weights, the ``(T,)``
    condition estimates and one entry per row: None, or the SingularSystem
    of that row, whose weights are then zero.  A row has the bits of its
    own solve.
    """
    if ridge < 0:
        raise MalformedSpec("ridge must be >= 0")
    u, s, vh = _svd(a_mat) if svd is None else svd
    beta = _rowwise(b, u.conj())
    # weights past the double range are detected, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if ridge > 0:
            w = _rowwise(beta * s / (s * s + ridge), vh.conj())
            cond = np.full(len(b), (s[0] ** 2 + ridge) / (s[-1] ** 2 + ridge))
            found = np.isfinite(w.view(np.float64)).all(axis=1)
            failure = SingularSystem(
                f"Tikhonov weights at ridge {ridge:.1e} leave the double range "
                f"for |Lambda| = {a_mat.shape[1]}"
            )
        else:
            # ridge 0: truncated SVD, each row's cutoff auto-selected on its
            # sup residual, the first of equal residuals kept
            w = np.zeros((len(b), a_mat.shape[1]), dtype=np.complex128)
            cond, best = np.full(len(b), np.nan), np.full(len(b), np.nan)
            found = np.zeros(len(b), dtype=bool)
            # adjacent cutoffs often keep the same prefix of s: each rank is
            # scored once, as its candidate would not be better the second time
            scored = {0}
            for cut in [0.0] + [10.0 ** e for e in range(-15, -7)]:
                keep = s > cut * s[0]
                rank = np.count_nonzero(keep)
                if rank in scored:
                    continue
                scored.add(rank)
                cand = _rowwise(beta[:, keep] / s[keep], vh.conj()[keep])
                sel = np.abs(_rowwise(cand, a_mat.T) - b).max(axis=1)
                better = np.isfinite(cand.view(np.float64)).all(axis=1) & (
                    ~found | (sel < best))
                w[better], best[better] = cand[better], sel[better]
                cond[better] = s[0] / s[keep].min()
                found |= better
            failure = SingularSystem(
                f"no usable truncated-SVD solution for |Lambda| = {a_mat.shape[1]}"
            )
    w[~found] = 0
    return w, cond, [None if ok else failure for ok in found]


def completeness_fit(
    basis: CompletenessBasis,
    values: np.ndarray,
    ridge: float = RIDGE_DEFAULT,
):
    """Ridge-regularized fit in span{f_lambda} of each target of the
    ``(T, P)`` stack ``values``, a target's row its values on
    ``basis.circles`` as ``evaluate_grid`` gives them, in one solve.

    The solve is :func:`regularized_solve` on the collocation matrix; the
    reported residual is the true sup norm on the denser verification
    circle (never the regularized objective, nor the collocation residual
    that picks a truncated-SVD cutoff).  Gives one entry per target: its
    FitReport, or the error its fit ended in (SingularSystem when the
    solve fails, NonFiniteCoefficient when the residual leaves the double
    range), which leaves the other targets alone.  A target has the bits
    of its own fit.
    """
    try:
        svd = basis.svd
    except SingularSystem as exc:
        return [exc] * len(values)
    w, cond, failures = regularized_solve(
        basis.collocation, values[:, :-VERIFY_POINTS], ridge, svd)
    resid = np.abs(_rowwise(w, basis.verification.T) - values[:, -VERIFY_POINTS:])
    overflow = NonFiniteCoefficient(
        f"fit residual at |Lambda| = {len(basis.lambdas)} leaves the double range",
        lambda_count=len(basis.lambdas),
    )
    return [
        failure or (FitReport(row, r, c) if np.isfinite(r) else overflow)
        for row, r, c, failure in zip(w, resid.max(axis=1).tolist(), cond.tolist(),
                                      failures)
    ]
