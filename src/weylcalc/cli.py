"""Command-line interface with reproducible JSON/CSV artifacts.

Six subcommands expose the computational workflows::

    weylcalc kernel           --op OP --terms N
    weylcalc commutator-check --op OP --ncap N
    weylcalc eigencheck       --op OP --grid G --lam-max R
    weylcalc complete-fit     --op OP --targets FILE --counts 5,10,20,40
    weylcalc construct-orbit  --problem FILE
    weylcalc decompose        --op OP | --matrix FILE

Each flag is declared once, in ``_FLAGS``, with its range check as its
argparse ``type``; one writer, ``_write``, writes every artifact with its
run manifest.  With ``WEYLCALC_TIMESTAMP`` set, identical invocations
give byte-identical files.  The exception's class decides the exit code:
0 success; 2 for a usage error or an :class:`~weylcalc.errors.InputError`
(bad input, such as an unknown key in an input JSON object), with
nothing written; 1 for any other :class:`~weylcalc.errors.WeylcalcError`,
a validated negative outcome such as a budget failure, a non-Weyl matrix
or a result that leaves the double range, with ``<command>_error.json``
written.  numpy's floating-point warnings are off: a non-finite result is
refused by a finiteness check or by the serializer.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .eigen import (
    RIDGE_DEFAULT,
    EigenFamily,
    completeness_bases,
    completeness_fit,
    composite_eigencheck,
    eigen_residual,
    inverse_integer_lambdas,
    random_disk_lambdas,
    segment_lambdas,
)
from .errors import (
    InputError,
    IoFailure,
    MalformedSpec,
    NonFiniteCoefficient,
    SingularSystem,
    WeylcalcError,
)
from .kernel_solver import kernel_basis
from .operators import (
    N_CAP_MAX,
    CompositeOperator,
    commutator_matrix,
    decompose,
    diff_op,
    matrix_on_monomials,
    scalar_identity_diagnostics,
)
from .orbit import (
    LAMBDA_COUNT_DEFAULT,
    MARGIN_DEFAULT,
    OrbitProblem,
    construct_orbit,
    targets_met,
    verify_orbit,
)
from .serialize import (
    WORKDIR_ENV,
    build_manifest,
    check_keys,
    complex_pair,
    operator_to_dict,
    pair_to_complex,
    parse_operator_spec,
    series_from_dict,
    series_to_dict,
    write_csv,
    write_manifest_sidecar,
    write_report,
)
from .series import DEFAULT_ORDER, DiskSpec

#: largest lambda set accepted by ``complete-fit --counts`` and
#: ``construct-orbit --lambda-count``
LAMBDA_COUNT_MAX = 512

#: most entries in ``complete-fit --counts``; the bases of all of them
#: are held at once
COUNTS_MAX = 16

#: largest side of the ``eigencheck --grid`` lambda grid
GRID_MAX = 64

#: largest ``kernel --terms`` and ``--order`` (series coefficients): the
#: cap of the monomial matrices
ORDER_MAX = N_CAP_MAX


def _load_json_arg(text: str, what: str):
    """Inline JSON (leading '{' or '[') or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        source, inputs = stripped, []
    else:
        path = Path(text)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, a NUL
            raise MalformedSpec(f"{what}: cannot read {text}: {exc}") from exc
        inputs = [path]
    try:
        return json.loads(source), inputs
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise MalformedSpec(f"{what}: invalid JSON: {exc}") from exc


def _operator(args):
    """The operator of ``--op`` and the input files it was read from."""
    doc, inputs = _load_json_arg(args.op, "--op")
    return parse_operator_spec(doc), inputs


def _write(args, params: dict, inputs, report: str, payload: dict, csv=None) -> Path:
    """Write the JSON ``report`` of ``payload`` with the run manifest
    embedded and, if ``csv = (name, header, columns)`` is given, that CSV
    with the manifest in its sidecar; the output directory back."""
    out = Path(args.outdir or os.environ.get(WORKDIR_ENV) or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc
    manifest = build_manifest(args.command, params, inputs)
    write_report(out / report, payload, manifest)
    if csv is not None:
        name, header, columns = csv
        write_csv(out / name, header, columns)
        write_manifest_sidecar(out / name, manifest)
    return out


def _params(args, **fields) -> dict:
    """Manifest parameters: ``fields`` and the value of every optional flag
    of the command (``_SUBCOMMANDS``)."""
    optional = _SUBCOMMANDS[args.command][3]
    return {**fields, **{k: v for k, v in vars(args).items()
                         if "--" + k.replace("_", "-") in optional}}


def _square_grid(grid: int, lam_max: float) -> np.ndarray:
    """grid x grid Cartesian points inside |lambda| <= lam_max."""
    half = lam_max / np.sqrt(2.0)
    axis = np.linspace(-half, half, grid)
    xs, ys = np.meshgrid(axis, axis)
    return (xs + 1j * ys).ravel()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_kernel(args) -> int:
    op, inputs = _operator(args)
    disk = DiskSpec(args.radius, 64)
    t = op.base if isinstance(op, CompositeOperator) else op
    basis = kernel_basis(t, args.terms, disk)
    _write(
        args,
        _params(args, op=operator_to_dict(op)),
        inputs,
        "kernel_basis.json",
        {
            "solutions": [series_to_dict(s) for s in basis.solutions],
            "residuals": basis.residuals,
            "formal": True,
        },
        ("kernel_residuals.csv", ["solution_index", "residual"],
         [np.arange(len(basis.residuals)), np.array(basis.residuals, dtype=float)]),
    )
    print(f"kernel basis: {len(basis.solutions)} solution(s), "
          f"max residual {max(basis.residuals):.3e}")
    return 0


def _cmd_commutator_check(args) -> int:
    op, inputs = _operator(args)
    comm = commutator_matrix(op, diff_op(1), args.ncap)
    a_est, offdiag_max, diag_spread = scalar_identity_diagnostics(comm)
    rows, cols = np.indices(comm.shape)
    _write(
        args,
        _params(args, op=operator_to_dict(op)),
        inputs,
        "commutator_check.json",
        {
            "a_estimate": a_est,
            "offdiag_max": offdiag_max,
            "diag_spread": diag_spread,
            "n_cap": comm.shape[1] - 1,
        },
        ("commutator_matrix.csv", ["row", "col", "re", "im"],
         [rows, cols, comm.real, comm.imag]),
    )
    print(f"commutator with D: a = {a_est}, off-diagonal max "
          f"{offdiag_max:.3e}, diagonal spread {diag_spread:.3e}")
    return 0


def _cmd_eigencheck(args) -> int:
    op, inputs = _operator(args)
    disk = DiskSpec(args.radius, 64)
    family = EigenFamily(op, args.order)
    lams = _square_grid(args.grid, args.lam_max)
    residuals = eigen_residual(family, lams, disk)
    worst_eigen = float(residuals.max())
    payload = {
        "family_kind": family.kind,
        "worst_eigen_residual": worst_eigen,
        "points": len(lams),
    }
    header = ["lam_re", "lam_im", "eigen_residual"]
    columns = [lams.real, lams.imag, residuals]
    msg = f"eigen-relation: worst residual {worst_eigen:.3e} over {len(lams)} points"
    if isinstance(op, CompositeOperator):
        comp_residuals = composite_eigencheck(family, lams, disk)
        worst_comp = float(comp_residuals.max())
        payload["worst_composite_residual"] = worst_comp
        header.append("composite_residual")
        columns.append(comp_residuals)
        msg += f", worst composite residual {worst_comp:.3e}"
    _write(
        args,
        _params(args, op=operator_to_dict(op)),
        inputs,
        "eigencheck.json",
        payload,
        ("eigencheck_grid.csv", header, columns),
    )
    print(msg)
    return 0


#: ``complete-fit --preset``: the lambda set of a count and a seed
_PRESETS = {
    "inverse": lambda count, seed: inverse_integer_lambdas(count),
    "segment": lambda count, seed: segment_lambdas(count),
    "random": random_disk_lambdas,
}


def _cmd_complete_fit(args) -> int:
    op, inputs = _operator(args)
    tdoc, tinputs = _load_json_arg(args.targets, "--targets")
    if not isinstance(tdoc, list) or not tdoc:
        raise MalformedSpec("--targets: expected a non-empty JSON list of series")
    targets = [series_from_dict(d) for d in tdoc]
    disk = DiskSpec(args.radius, 64)
    family = EigenFamily(op, args.order)
    bases = completeness_bases(
        family,
        [_PRESETS[args.preset](count, args.seed) for count in args.counts],
        disk,
    )
    reports = []
    for ti, target in enumerate(targets):
        label = target.label or f"target[{ti}]"
        for count, basis in zip(args.counts, bases):
            row = {"target": ti, "label": label, "count": count}
            try:
                fit = completeness_fit(basis, target, args.ridge)
            except SingularSystem as exc:
                reports.append({**row, "status": "conditioning-failure",
                                "detail": str(exc)})
                continue
            reports.append({
                **row,
                "status": "ok",
                "residual_norm": fit.residual_norm,
                "condition_diag": fit.condition_diag,
                "ridge": fit.ridge,
                "weights": [complex_pair(w) for w in fit.weights],
            })
    csv_name = "residual_curve.csv"
    out = _write(
        args,
        _params(args, op=operator_to_dict(op)),
        inputs + tinputs,
        "complete_fit.json",
        {"fits": reports},
        # the CSV writer refuses non-finite floats; a failed fit's "inf" is text
        (csv_name,
         ["target_index", "target_label", "count", "residual", "condition",
          "ridge", "status"],
         [
             [r["target"] for r in reports],
             [r["label"] for r in reports],
             [r["count"] for r in reports],
             [r.get("residual_norm", "inf") for r in reports],
             [r.get("condition_diag", "inf") for r in reports],
             [r.get("ridge", args.ridge) for r in reports],
             [r["status"] for r in reports],
         ]),
    )
    n_ok = sum(r["status"] == "ok" for r in reports)
    n_fail = len(reports) - n_ok
    print(f"completeness fits: {n_ok} ok, {n_fail} conditioning failure(s); "
          f"curve written to {out / csv_name}")
    return 0 if n_ok > 0 else 1


def _cmd_construct_orbit(args) -> int:
    doc, inputs = _load_json_arg(args.problem, "--problem")
    if not isinstance(doc, dict) or "operator" not in doc or "targets" not in doc:
        raise MalformedSpec(
            "--problem: expected {'operator': ..., 'targets': [...]} "
            "with optional 'radius' and 'epsilon'"
        )
    check_keys(doc, ("operator", "targets", "radius", "epsilon"), "--problem")
    op = parse_operator_spec(doc["operator"])
    comp = op if isinstance(op, CompositeOperator) else CompositeOperator(
        op, np.array([0.0, 1.0], dtype=np.complex128))
    if not isinstance(doc["targets"], list) or not doc["targets"]:
        raise MalformedSpec("--problem: 'targets' must be a non-empty list")
    targets = [series_from_dict(d) for d in doc["targets"]]
    if args.lambda_count * len(targets) > LAMBDA_COUNT_MAX:
        raise MalformedSpec(
            f"--lambda-count: {args.lambda_count} lambda points for each of "
            f"{len(targets)} targets exceed the cap of {LAMBDA_COUNT_MAX} in all"
        )
    problem = OrbitProblem(EigenFamily(comp, args.order), targets, **{
        k: v for k, v in doc.items() if k in ("radius", "epsilon")})
    construction = construct_orbit(
        problem,
        lambda_count=args.lambda_count,
        margin=args.margin,
        ridge=args.ridge,
    )
    verification = verify_orbit(construction, problem)
    met = targets_met(verification, problem.epsilon)
    per_target = construction.report["per_target"]
    _write(
        args,
        _params(args, operator=operator_to_dict(comp),
                targets=[series_to_dict(q) for q in targets],
                radius=problem.radius, epsilon=problem.epsilon),
        inputs,
        "orbit.json",
        {
            "f": series_to_dict(construction.f),
            "schedule": construction.schedule,
            "lambdas": [complex_pair(l) for l in construction.basis.lambdas.points],
            "eigenvalues": [complex_pair(m) for m in construction.eigenvalues],
            "blocks": [
                {"target": j, "n": n, "weights": [complex_pair(w) for w in weights]}
                for j, n, weights in construction.blocks()
            ],
            "report": {**construction.report, "all_targets_met": met},
            "verification": verification,
        },
        ("orbit_errors.csv", ["j", "n_j", "achieved_error", "method_discrepancy"],
         [
             [row["target"] for row in per_target],
             [row["n"] for row in per_target],
             [row["achieved_error"] for row in per_target],
             [row["method_discrepancy"] for row in verification],
         ]),
    )
    print(f"orbit schedule {construction.schedule}, all targets met: {met}")
    return 0 if met else 1


def _matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise MalformedSpec("--matrix: expected {'entries': [[ [re,im], ...], ...]}")
    check_keys(doc, ("entries",), "--matrix")
    rows = doc["entries"]
    if not isinstance(rows, list) or not rows or not all(
        isinstance(row, list) and len(row) == len(rows[0]) for row in rows
    ):
        raise MalformedSpec(
            "--matrix: 'entries' must be a non-empty list of rows of one length"
        )
    entries = np.array(
        [[pair_to_complex(p, "--matrix: entries") for p in row] for row in rows],
        dtype=np.complex128,
    )
    if not 2 <= entries.shape[1] <= entries.shape[0]:
        raise MalformedSpec(
            "--matrix: entries must form a matrix with >= 2 columns and at "
            "least as many rows as columns"
        )
    return entries


def _cmd_decompose(args) -> int:
    if (args.op is None) == (args.matrix is None):
        raise MalformedSpec("decompose: pass exactly one of --op / --matrix")
    if args.op is not None:
        op, inputs = _operator(args)
        mat = matrix_on_monomials(op, args.ncap)
        params = {"op": operator_to_dict(op), "ncap": args.ncap}
    else:
        doc, inputs = _load_json_arg(args.matrix, "--matrix")
        mat = _matrix_from_doc(doc)
        params = {"matrix_shape": list(mat.shape), "ncap": mat.shape[1] - 1}
    a_est, m = decompose(mat)
    _write(args, params, inputs, "decompose.json",
           {"a": a_est, "d": [complex_pair(c) for c in m.d], "order": m.order})
    print(f"decomposed: a = {a_est}, convolution order {m.order}")
    return 0


# ---------------------------------------------------------------------------
# driver


def _checked(convert, ok, expected: str):
    """An argparse ``type``: ``convert(text)``, refused unless ``ok`` holds."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return value

    return parse


def _size(cap: int):
    return _checked(int, lambda n: 1 <= n <= cap, f"a value in 1..{cap}")


def _counts(text: str) -> list:
    """``--counts``: 1..COUNTS_MAX comma-separated sizes, each 1..LAMBDA_COUNT_MAX."""
    try:
        counts = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        counts = []
    if not 1 <= len(counts) <= COUNTS_MAX:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of 1..{COUNTS_MAX} integers, "
            f"got {text!r}"
        )
    return [_size(LAMBDA_COUNT_MAX)(count) for count in counts]


_NONNEGATIVE = _checked(float, lambda x: 0 <= x <= sys.float_info.max,
                        "a finite number >= 0")
_POSITIVE = _checked(float, lambda x: 0 < x <= sys.float_info.max,
                     "a finite positive number")
_ORDER_HELP = f"series coefficients, 1..{ORDER_MAX}"

#: every flag of every subcommand, each with its default and its check
_FLAGS = {
    "--outdir": dict(help=f"artifact directory (default: ${WORKDIR_ENV} or cwd)"),
    "--op": dict(help="operator JSON (path or inline)"),
    "--matrix": dict(help="monomial matrix JSON (path or inline)"),
    "--problem": dict(help="orbit problem JSON (path or inline)"),
    "--targets": dict(help="JSON list of target series (path or inline)"),
    "--terms": dict(type=_size(ORDER_MAX), default=40, help=_ORDER_HELP),
    "--order": dict(type=_size(ORDER_MAX), default=DEFAULT_ORDER, help=_ORDER_HELP),
    "--radius": dict(type=_POSITIVE, default=1.0, help="disk radius, finite and > 0"),
    "--ncap": dict(type=_size(N_CAP_MAX), default=64,
                   help=f"monomial degree cap, 1..{N_CAP_MAX}"),
    "--grid": dict(type=_size(GRID_MAX), default=5,
                   help=f"grid side, 1..{GRID_MAX} (grid x grid lambda points)"),
    "--lam-max": dict(type=_NONNEGATIVE, default=2.0),
    "--preset": dict(choices=list(_PRESETS), default="inverse"),
    "--counts": dict(type=_counts, default="5,10,20,40",
                     help=f"comma-separated lambda-set sizes, at most "
                          f"{COUNTS_MAX}, each 1..{LAMBDA_COUNT_MAX}"),
    "--seed": dict(type=_checked(int, lambda n: n >= 0, "an integer >= 0"), default=0),
    "--ridge": dict(type=_NONNEGATIVE, default=RIDGE_DEFAULT,
                    help="Tikhonov ridge, finite and >= 0 (0: truncated SVD)"),
    "--lambda-count": dict(type=_size(LAMBDA_COUNT_MAX), default=LAMBDA_COUNT_DEFAULT,
                           help=f"expanding lambda points per target; times the "
                                f"number of targets at most {LAMBDA_COUNT_MAX}"),
    "--margin": dict(type=_POSITIVE, default=MARGIN_DEFAULT),
}

#: subcommand: (handler, help, required flags, optional flags)
_SUBCOMMANDS = {
    "kernel": (_cmd_kernel, "power-series kernel basis of T",
               ["--op"], ["--terms", "--radius"]),
    "commutator-check": (_cmd_commutator_check, "[Op, D] against a scalar identity",
                         ["--op"], ["--ncap"]),
    "eigencheck": (_cmd_eigencheck, "eigen-relation residuals on a lambda grid",
                   ["--op"], ["--grid", "--lam-max", "--order", "--radius"]),
    "complete-fit": (_cmd_complete_fit, "translate-span completeness fits",
                     ["--op", "--targets"],
                     ["--preset", "--counts", "--seed", "--ridge", "--order", "--radius"]),
    "construct-orbit": (_cmd_construct_orbit, "explicit approximate orbit for L(T)",
                        ["--problem"], ["--lambda-count", "--margin", "--ridge", "--order"]),
    "decompose": (_cmd_decompose, "recover (a, M) from a monomial matrix",
                  [], ["--op", "--matrix", "--ncap"]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="Numerical calculus for operators T = M - a z I on "
                    "entire functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, required, optional) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in ["--outdir", *required, *optional]:
            p.add_argument(flag, required=flag in required, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylcalcError as exc:
        # the parsed parameters, as in the success manifests; the output
        # directory is left out so the bytes do not depend on it
        params = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "outdir")}
        try:
            _write(args, params, [], f"{args.command.replace('-', '_')}_error.json",
                   {"error": {"type": type(exc).__name__, "message": str(exc),
                              **exc.fields}})
        except (IoFailure, NonFiniteCoefficient):
            pass  # no artifact: the directory failed, or a diagnostic is not finite
        print(f"negative result: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
