"""The three benchmark workloads as lists of CLI operations.

Each :class:`Op` is one ``weylcalc`` invocation plus everything the
independent checks in ``checks.py`` need to judge its artifacts (the
command-level inputs in plain Python numbers), and whether the operation
is expected to fail because of a known fault in the program.

The seed changes input values, never the amount of work: the phases of
the single-target orbit problems, the ``random`` lambda preset of the fit
workload and the signs of ``a`` in the algebra workload.  Inputs of the
operations kept failing by a known fault do not depend on the seed.
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass

#: fault that keeps the two-target orbit problems failing; see README.md
CANCELLATION_FAULT = (
    "construct_orbit cancels earlier blocks in eigen-coordinates, so the "
    "delivered vector misses every target but the last"
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its artifacts must satisfy."""

    name: str
    kind: str  # the check to apply: orbit, fit, commutator, decompose, kernel, eigencheck
    argv: list
    spec: dict
    known_fault: str | None = None


def _pairs(values) -> list:
    return [[complex(v).real, complex(v).imag] for v in values]


def _op_doc(d, a, l=None) -> dict:
    doc = {"d": _pairs(d), "a": _pairs([a])[0]}
    if l is not None:
        doc["L"] = _pairs(l)
    return doc


def _op_json(d, a, l=None) -> str:
    return json.dumps(_op_doc(d, a, l))


# T = D - zI, the operator of the paper's examples
_T_D = [0, 1]
_T_A = 1
_L_T = [0, 1]  # L(T) = T
_L_5 = [0, 1, 1]  # L(T) = T + T^2, the paper's operator (5)


def _orbit_op(name, l, targets, epsilon=0.1, known_fault=None) -> Op:
    problem = {
        "operator": _op_doc(_T_D, _T_A, l),
        "targets": [{"coeffs": _pairs(q)} for q in targets],
        "radius": 1.0,
        "epsilon": epsilon,
    }
    spec = {
        "d": _T_D, "a": _T_A, "l": l, "targets": targets,
        "radius": 1.0, "epsilon": epsilon,
    }
    return Op(
        name=name,
        kind="orbit",
        argv=["construct-orbit", "--problem", json.dumps(problem)],
        spec=spec,
        known_fault=known_fault,
    )


def orbit_ops(seed: int) -> list:
    """README instance and operator (5) (fixed, failing), three single targets."""
    rng = random.Random(seed)

    def phase():
        return cmath.exp(2j * cmath.pi * rng.random())

    return [
        _orbit_op("orbit/readme_T_1_z", _L_T, [[1], [0, 1]],
                  known_fault=CANCELLATION_FAULT),
        _orbit_op("orbit/op5_T+T2_1_z", _L_5, [[1], [0, 1]],
                  known_fault=CANCELLATION_FAULT),
        _orbit_op("orbit/T_1", _L_T, [[phase()]]),
        _orbit_op("orbit/T_z", _L_T, [[0, phase()]]),
        _orbit_op("orbit/T+T2_z2", _L_5, [[0, 0, phase()]]),
    ]


FIT_TARGETS = [([1], "1"), ([0, 1], "z"), ([0, 0, 1], "z^2"), ([0.5, 0, 0, 1], "1/2+z^3")]
FIT_COUNTS = [5, 10, 20, 40, 80]


def fit_ops(seed: int) -> list:
    """complete-fit for every lambda preset, TSVD and Tikhonov."""
    targets = json.dumps(
        [{"coeffs": _pairs(q), "label": label} for q, label in FIT_TARGETS]
    )
    counts = ",".join(str(c) for c in FIT_COUNTS)
    ops = []
    for preset in ("inverse", "segment", "random"):
        for ridge in (0.0, 1e-10):
            spec = {
                "d": _T_D, "a": _T_A,
                "targets": [q for q, _ in FIT_TARGETS],
                "preset": preset, "counts": FIT_COUNTS, "seed": seed,
                "ridge": ridge, "radius": 1.0,
            }
            ops.append(Op(
                name=f"fit/{preset}_ridge{ridge:g}",
                kind="fit",
                argv=["complete-fit", "--op", _op_json(_T_D, _T_A),
                      "--targets", targets, "--preset", preset,
                      "--counts", counts, "--seed", str(seed),
                      "--ridge", repr(ridge)],
                spec=spec,
            ))
    return ops


COMMUTATOR_NCAPS = [64, 128, 256]
DECOMPOSE_NCAP = 64
KERNEL_TERMS = 40
EIGEN_GRID = 7
EIGEN_LAM_MAX = 2.0


def algebra_operators(seed: int) -> list:
    """Weyl operators of orders 1-4 with real and imaginary a, plus L(T)."""
    rng = random.Random(seed)

    def sign():
        return rng.choice((1, -1))

    s1 = sign()
    return [
        ("T1", [0, 1], s1, None),
        ("T2", [0, 0, 1], 1j * sign(), None),
        ("T3", [0, 0.5, 0, 1], -1 * sign(), None),
        ("T4", [0, 0, 0, 0, 1], -0.5j * sign(), None),
        ("L(T1)", [0, 1], s1, [0, 1, 1]),
    ]


def algebra_ops(seed: int) -> list:
    ops = []
    for label, d, a, l in algebra_operators(seed):
        op = _op_json(d, a, l)
        base = {"d": d, "a": a, "l": l}
        for ncap in COMMUTATOR_NCAPS:
            ops.append(Op(
                name=f"algebra/commutator_{label}_{ncap}",
                kind="commutator",
                argv=["commutator-check", "--op", op, "--ncap", str(ncap)],
                spec={**base, "ncap": ncap},
            ))
        ops.append(Op(
            name=f"algebra/decompose_{label}",
            kind="decompose",
            argv=["decompose", "--op", op, "--ncap", str(DECOMPOSE_NCAP)],
            spec={**base, "ncap": DECOMPOSE_NCAP},
        ))
        if l is None:
            ops.append(Op(
                name=f"algebra/kernel_{label}",
                kind="kernel",
                argv=["kernel", "--op", op, "--terms", str(KERNEL_TERMS)],
                spec={**base, "terms": KERNEL_TERMS},
            ))
        ops.append(Op(
            name=f"algebra/eigencheck_{label}",
            kind="eigencheck",
            argv=["eigencheck", "--op", op, "--grid", str(EIGEN_GRID),
                  "--lam-max", repr(EIGEN_LAM_MAX)],
            spec={**base, "grid": EIGEN_GRID, "lam_max": EIGEN_LAM_MAX},
        ))
    return ops


WORKLOADS = {"orbit": orbit_ops, "fit": fit_ops, "algebra": algebra_ops}
