"""Power-series basis of ker T for T = M - a z I.

The kernel equation sum_k d_k f^(k)(z) = a z f(z) becomes a coefficient
recurrence: for each n >= 0, with t_k(j) the entry of T's superdiagonal
k on column j,

    sum_{k<=p} t_k(n+k) c_{n+k} = a c_{n-1}      (c_{-1} = 0),

which yields c_{n+p} from earlier coefficients whenever d_p != 0.  The
diagonals are read from the banded core of :mod:`weylcalc.operators`,
the one place that lays T out on the monomials.  The p
initial-condition vectors e_0..e_{p-1} give p structurally independent
solutions.  Entirety at truncation scale is evidenced by the residuals,
not proven; reports flag the basis as formal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvolutionCase,
    MalformedSpec,
    NonFiniteCoefficient,
    OrderExhausted,
    ZeroOrderOperator,
)
from .operators import WeylOperator, _bands, apply_weyl
from .series import DiskSpec, TaylorSeries, UNIT_DISK, disk_sup_norm

#: recurrence halts once a coefficient magnitude passes this guard
OVERFLOW_GUARD = 1e150


@dataclass(frozen=True)
class KernelBasis:
    """p independent formal kernel solutions with their residuals."""

    solutions: list
    residuals: list


def kernel_basis(
    t: WeylOperator, n_terms: int, disk: DiskSpec = UNIT_DISK
) -> KernelBasis:
    """Solve the kernel recurrence for all p initial conditions, each cut
    before its first coefficient past OVERFLOW_GUARD (OrderExhausted when
    that leaves only the p initial ones, on which T cannot act)."""
    p = t.m.order
    if p < 1:
        raise ZeroOrderOperator(
            "kernel recurrence needs a differential part of order >= 1"
        )
    if t.a == 0:
        raise ConvolutionCase(
            "a = 0: kernel is spanned by exponential monomials; use the "
            "exponential eigenfamily instead of the recurrence"
        )
    if n_terms < p + 2:
        raise MalformedSpec(f"n_terms must be >= {p + 2}")
    section = _bands(t, n_terms, exact=False)[0]
    lower = [k for k in range(p) if k in section]
    solutions = []
    for j in range(p):
        c = np.zeros(n_terms, dtype=np.complex128)
        c[j] = 1.0
        for n in range(n_terms - p):
            rhs = t.a * c[n - 1] if n >= 1 else 0.0
            for k in lower:
                rhs -= section[k][n + k] * c[n + k]
            c[n + p] = rhs / section[p][n + p]
            if abs(c[n + p]) > OVERFLOW_GUARD:
                if n == 0:
                    raise OrderExhausted(
                        f"kernel recurrence: coefficient c_{p} of solution {j} has "
                        f"magnitude {abs(c[p]):.3e}, past OVERFLOW_GUARD = "
                        f"{OVERFLOW_GUARD:.1e}, at the first step: no coefficient "
                        "beyond the initial conditions"
                    )
                c = c[: n + p]
                break
        solutions.append(TaylorSeries(c, f"ker[{j}]"))
    residuals = [kernel_residual(t, s, disk) for s in solutions]
    return KernelBasis(solutions=solutions, residuals=residuals)


def kernel_residual(
    t: WeylOperator, f: TaylorSeries, disk: DiskSpec = UNIT_DISK
) -> float:
    """Sup norm of T f on the disk (0 for exact kernel members)."""
    residual = disk_sup_norm(apply_weyl(t, f), disk)
    if not np.isfinite(residual):
        raise NonFiniteCoefficient(
            f"kernel residual on the disk of radius {disk.radius:g} leaves "
            f"the double range"
        )
    return residual
