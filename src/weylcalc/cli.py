"""Command-line interface with reproducible JSON/CSV artifacts.

Six subcommands expose the computational workflows::

    weylcalc kernel           --op OP --terms N
    weylcalc commutator-check --op OP --ncap N
    weylcalc eigencheck       --op OP --grid G --lam-max R
    weylcalc complete-fit     --op OP --targets FILE --counts 5,10,20,40
    weylcalc construct-orbit  --problem FILE
    weylcalc decompose        --op OP | --matrix FILE

Every artifact embeds or accompanies a run manifest; with the
``WEYLCALC_TIMESTAMP`` override set, identical invocations produce
byte-identical files.  The exception's class decides the exit code: 0
success; 2 for an :class:`~weylcalc.errors.InputError` (bad input,
nothing written); 1 for any other
:class:`~weylcalc.errors.WeylcalcError`, a validated negative outcome
such as a budget failure, a non-Weyl matrix or a result that leaves the
double range, with ``<command>_error.json`` written.
"""

from __future__ import annotations

import argparse
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
    exponential_family,
    family_from_kernel,
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
    CompositeOperator,
    WeylOperator,
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

#: largest ``kernel --terms`` and ``--order`` (series coefficients), the
#: cap of the monomial matrices too
ORDER_MAX = 512


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


def _outdir(args) -> Path:
    path = Path(args.outdir or os.environ.get(WORKDIR_ENV) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    return path


def _family_for(t: WeylOperator, order: int) -> EigenFamily:
    _check_range("--order", order, ORDER_MAX)
    if t.a == 0:
        return exponential_family(order)
    basis = kernel_basis(t, order)
    return family_from_kernel(t, basis.solutions[0])


def _check_range(flag: str, value: int, cap: int) -> None:
    if not 1 <= value <= cap:
        raise MalformedSpec(f"{flag}: expected a value in 1..{cap}, got {value}")


def _positive(what: str, value) -> float:
    """``value`` as a float; it must be a finite positive number."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0 < value <= sys.float_info.max
    ):
        raise MalformedSpec(
            f"{what}: expected a finite positive number, got {value!r}"
        )
    return float(value)


def _nonnegative(flag: str, value: float) -> None:
    if not 0 <= value <= sys.float_info.max:
        raise MalformedSpec(
            f"{flag}: expected a finite number >= 0, got {value!r}"
        )


def _base_weyl(op) -> WeylOperator:
    return op.base if isinstance(op, CompositeOperator) else op


def _square_grid(grid: int, lam_max: float) -> np.ndarray:
    """grid x grid Cartesian points inside |lambda| <= lam_max."""
    half = lam_max / np.sqrt(2.0)
    axis = np.linspace(-half, half, grid)
    xs, ys = np.meshgrid(axis, axis)
    return (xs + 1j * ys).ravel()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_kernel(args) -> int:
    _check_range("--terms", args.terms, ORDER_MAX)
    doc, inputs = _load_json_arg(args.op, "--op")
    op = parse_operator_spec(doc)
    t = _base_weyl(op)
    disk = DiskSpec(args.radius, 64)
    basis = kernel_basis(t, args.terms, disk)
    out = _outdir(args)
    manifest = build_manifest(
        "kernel",
        {"op": operator_to_dict(op), "terms": args.terms, "radius": args.radius},
        inputs,
    )
    write_report(
        out / "kernel_basis.json",
        {
            "solutions": [series_to_dict(s) for s in basis.solutions],
            "residuals": basis.residuals,
            "formal": True,
        },
        manifest,
    )
    csv_path = out / "kernel_residuals.csv"
    write_csv(
        csv_path,
        ["solution_index", "residual"],
        [np.arange(len(basis.residuals)), np.array(basis.residuals, dtype=float)],
    )
    write_manifest_sidecar(csv_path, manifest)
    print(f"kernel basis: {len(basis.solutions)} solution(s), "
          f"max residual {max(basis.residuals):.3e}")
    return 0


def _cmd_commutator_check(args) -> int:
    doc, inputs = _load_json_arg(args.op, "--op")
    op = parse_operator_spec(doc)
    comm = commutator_matrix(op, diff_op(1), args.ncap)
    a_est, offdiag_max, diag_spread = scalar_identity_diagnostics(comm)
    out = _outdir(args)
    manifest = build_manifest(
        "commutator-check",
        {"op": operator_to_dict(op), "ncap": args.ncap},
        inputs,
    )
    write_report(
        out / "commutator_check.json",
        {
            "a_estimate": a_est,
            "offdiag_max": offdiag_max,
            "diag_spread": diag_spread,
            "n_cap": comm.shape[1] - 1,
        },
        manifest,
    )
    csv_path = out / "commutator_matrix.csv"
    rows, cols = np.indices(comm.shape)
    write_csv(csv_path, ["row", "col", "re", "im"], [rows, cols, comm.real, comm.imag])
    write_manifest_sidecar(csv_path, manifest)
    print(f"commutator with D: a = {a_est}, off-diagonal max "
          f"{offdiag_max:.3e}, diagonal spread {diag_spread:.3e}")
    return 0


def _cmd_eigencheck(args) -> int:
    _check_range("--grid", args.grid, GRID_MAX)
    _nonnegative("--lam-max", args.lam_max)
    doc, inputs = _load_json_arg(args.op, "--op")
    op = parse_operator_spec(doc)
    t = _base_weyl(op)
    disk = DiskSpec(args.radius, 64)
    family = _family_for(t, args.order)
    lams = _square_grid(args.grid, args.lam_max)
    composite = isinstance(op, CompositeOperator)
    residuals = eigen_residual(t, family, lams, disk)
    if composite:
        comp_residuals = composite_eigencheck(op, family, lams, disk)
    columns = [lams.real, lams.imag, residuals]
    worst_eigen = float(residuals.max())
    out = _outdir(args)
    manifest = build_manifest(
        "eigencheck",
        {
            "op": operator_to_dict(op),
            "grid": args.grid,
            "lam_max": args.lam_max,
            "order": args.order,
            "radius": args.radius,
        },
        inputs,
    )
    payload = {
        "family_kind": family.kind,
        "worst_eigen_residual": worst_eigen,
        "points": len(lams),
    }
    header = ["lam_re", "lam_im", "eigen_residual"]
    if composite:
        worst_comp = float(comp_residuals.max())
        payload["worst_composite_residual"] = worst_comp
        header.append("composite_residual")
        columns.append(comp_residuals)
    write_report(out / "eigencheck.json", payload, manifest)
    csv_path = out / "eigencheck_grid.csv"
    write_csv(csv_path, header, columns)
    write_manifest_sidecar(csv_path, manifest)
    msg = f"eigen-relation: worst residual {worst_eigen:.3e} over {len(lams)} points"
    if composite:
        msg += f", worst composite residual {worst_comp:.3e}"
    print(msg)
    return 0


def _preset_lambdas(preset: str, count: int, seed: int):
    if preset == "inverse":
        return inverse_integer_lambdas(count)
    if preset == "segment":
        return segment_lambdas(count)
    if preset == "random":
        return random_disk_lambdas(count, seed)
    raise MalformedSpec(f"unknown lambda preset {preset!r}")


def _cmd_complete_fit(args) -> int:
    _nonnegative("--ridge", args.ridge)
    if args.seed < 0:
        raise MalformedSpec(f"--seed: expected an integer >= 0, got {args.seed}")
    doc, inputs = _load_json_arg(args.op, "--op")
    op = parse_operator_spec(doc)
    t = _base_weyl(op)
    tdoc, tinputs = _load_json_arg(args.targets, "--targets")
    if not isinstance(tdoc, list) or not tdoc:
        raise MalformedSpec("--targets: expected a non-empty JSON list of series")
    targets = [series_from_dict(d) for d in tdoc]
    try:
        counts = [int(v) for v in args.counts.split(",") if v.strip()]
    except ValueError:
        counts = []
    if not 1 <= len(counts) <= COUNTS_MAX:
        raise MalformedSpec(
            f"--counts: expected a comma-separated list of 1..{COUNTS_MAX} "
            f"integers, got {args.counts!r}"
        )
    for count in counts:
        _check_range("--counts", count, LAMBDA_COUNT_MAX)
    disk = DiskSpec(args.radius, 64)
    family = _family_for(t, args.order)
    bases = completeness_bases(
        family,
        [_preset_lambdas(args.preset, count, args.seed) for count in counts],
        disk,
    )
    reports = []
    n_ok = 0
    for ti, target in enumerate(targets):
        label = target.label or f"target[{ti}]"
        for count, basis in zip(counts, bases):
            try:
                fit = completeness_fit(basis, target, args.ridge)
            except SingularSystem as exc:
                reports.append({
                    "target": ti,
                    "label": label,
                    "count": count,
                    "status": "conditioning-failure",
                    "detail": str(exc),
                })
                continue
            n_ok += 1
            reports.append({
                "target": ti,
                "label": label,
                "count": count,
                "status": "ok",
                "residual_norm": fit.residual_norm,
                "condition_diag": fit.condition_diag,
                "ridge": fit.ridge,
                "weights": [complex_pair(w) for w in fit.weights],
            })
    out = _outdir(args)
    manifest = build_manifest(
        "complete-fit",
        {
            "op": operator_to_dict(op),
            "preset": args.preset,
            "counts": counts,
            "seed": args.seed,
            "ridge": args.ridge,
            "order": args.order,
            "radius": args.radius,
        },
        inputs + tinputs,
    )
    write_report(out / "complete_fit.json", {"fits": reports}, manifest)
    csv_path = out / "residual_curve.csv"
    # the CSV writer refuses non-finite floats; a failed fit's "inf" is text
    write_csv(
        csv_path,
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
        ],
    )
    write_manifest_sidecar(csv_path, manifest)
    n_fail = len(reports) - n_ok
    print(f"completeness fits: {n_ok} ok, {n_fail} conditioning failure(s); "
          f"curve written to {csv_path}")
    return 0 if n_ok > 0 else 1


def _cmd_construct_orbit(args) -> int:
    _check_range("--lambda-count", args.lambda_count, LAMBDA_COUNT_MAX)
    _positive("--margin", args.margin)
    _nonnegative("--ridge", args.ridge)
    doc, inputs = _load_json_arg(args.problem, "--problem")
    if not isinstance(doc, dict) or "operator" not in doc or "targets" not in doc:
        raise MalformedSpec(
            "--problem: expected {'operator': ..., 'targets': [...]} "
            "with optional 'radius' and 'epsilon'"
        )
    op = parse_operator_spec(doc["operator"])
    if isinstance(op, CompositeOperator):
        comp = op
    else:
        comp = CompositeOperator(op, np.array([0.0, 1.0], dtype=np.complex128))
    if not isinstance(doc["targets"], list) or not doc["targets"]:
        raise MalformedSpec("--problem: 'targets' must be a non-empty list")
    targets = [series_from_dict(d) for d in doc["targets"]]
    if args.lambda_count * len(targets) > LAMBDA_COUNT_MAX:
        raise MalformedSpec(
            f"--lambda-count: {args.lambda_count} lambda points for each of "
            f"{len(targets)} targets exceed the cap of {LAMBDA_COUNT_MAX} in all"
        )
    radius = _positive("--problem: 'radius'", doc.get("radius", 1.0))
    epsilon = _positive("--problem: 'epsilon'", doc.get("epsilon", 0.1))
    family = _family_for(comp.base, args.order)
    problem = OrbitProblem(comp, family, targets, radius=radius, epsilon=epsilon)
    out = _outdir(args)
    manifest = build_manifest(
        "construct-orbit",
        {
            "operator": operator_to_dict(comp),
            "targets": [series_to_dict(q) for q in targets],
            "radius": radius,
            "epsilon": epsilon,
            "lambda_count": args.lambda_count,
            "margin": args.margin,
            "ridge": args.ridge,
            "order": args.order,
        },
        inputs,
    )
    construction = construct_orbit(
        problem,
        lambda_count=args.lambda_count,
        margin=args.margin,
        ridge=args.ridge,
    )
    verification = verify_orbit(construction, problem)
    met = targets_met(verification, epsilon)
    payload = {
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
    }
    write_report(out / "orbit.json", payload, manifest)
    per_target = construction.report["per_target"]
    csv_path = out / "orbit_errors.csv"
    # an iterate past DIRECT_CAP has no direct route: an empty cell
    write_csv(
        csv_path,
        ["j", "n_j", "achieved_error", "method_discrepancy"],
        [
            [row["target"] for row in per_target],
            [row["n"] for row in per_target],
            [row["achieved_error"] for row in per_target],
            ["" if row["method_discrepancy"] is None else row["method_discrepancy"]
             for row in verification],
        ],
    )
    write_manifest_sidecar(csv_path, manifest)
    print(f"orbit schedule {construction.schedule}, all targets met: {met}")
    return 0 if met else 1


def _matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise MalformedSpec("--matrix: expected {'entries': [[ [re,im], ...], ...]}")
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
        doc, inputs = _load_json_arg(args.op, "--op")
        op = parse_operator_spec(doc)
        mat = matrix_on_monomials(op, args.ncap)
        params = {"op": operator_to_dict(op), "ncap": args.ncap}
    else:
        doc, inputs = _load_json_arg(args.matrix, "--matrix")
        mat = _matrix_from_doc(doc)
        params = {"matrix_shape": list(mat.shape), "ncap": mat.shape[1] - 1}
    a_est, m = decompose(mat)
    out = _outdir(args)
    manifest = build_manifest("decompose", params, inputs)
    write_report(
        out / "decompose.json",
        {
            "a": a_est,
            "d": [complex_pair(c) for c in m.d],
            "order": m.order,
        },
        manifest,
    )
    print(f"decomposed: a = {a_est}, convolution order {m.order}")
    return 0


# ---------------------------------------------------------------------------
# driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="Numerical calculus for operators T = M - a z I on "
                    "entire functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--outdir", default=None,
                       help=f"artifact directory (default: ${WORKDIR_ENV} or cwd)")

    p = sub.add_parser("kernel", help="power-series kernel basis of T")
    common(p)
    p.add_argument("--op", required=True, help="operator JSON (path or inline)")
    p.add_argument("--terms", type=int, default=40,
                   help=f"series coefficients, 1..{ORDER_MAX}")
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("commutator-check", help="[Op, D] against a scalar identity")
    common(p)
    p.add_argument("--op", required=True)
    p.add_argument("--ncap", type=int, default=64)
    p.set_defaults(func=_cmd_commutator_check)

    p = sub.add_parser("eigencheck", help="eigen-relation residuals on a lambda grid")
    common(p)
    p.add_argument("--op", required=True)
    p.add_argument("--grid", type=int, default=5,
                   help=f"grid side, 1..{GRID_MAX} (grid x grid lambda points)")
    p.add_argument("--lam-max", type=float, default=2.0)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help=f"series coefficients, 1..{ORDER_MAX}")
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(func=_cmd_eigencheck)

    p = sub.add_parser("complete-fit", help="translate-span completeness fits")
    common(p)
    p.add_argument("--op", required=True)
    p.add_argument("--targets", required=True,
                   help="JSON list of target series (path or inline)")
    p.add_argument("--preset", choices=["inverse", "segment", "random"],
                   default="inverse")
    p.add_argument("--counts", default="5,10,20,40",
                   help=f"comma-separated lambda-set sizes, at most "
                        f"{COUNTS_MAX}, each 1..{LAMBDA_COUNT_MAX}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ridge", type=float, default=RIDGE_DEFAULT,
                   help="Tikhonov ridge, finite and >= 0 (0: truncated SVD)")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help=f"series coefficients, 1..{ORDER_MAX}")
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(func=_cmd_complete_fit)

    p = sub.add_parser("construct-orbit", help="explicit approximate orbit for L(T)")
    common(p)
    p.add_argument("--problem", required=True,
                   help="orbit problem JSON (path or inline)")
    p.add_argument("--lambda-count", type=int, default=LAMBDA_COUNT_DEFAULT,
                   help=f"expanding lambda points per target; times the "
                        f"number of targets at most {LAMBDA_COUNT_MAX}")
    p.add_argument("--margin", type=float, default=MARGIN_DEFAULT)
    p.add_argument("--ridge", type=float, default=RIDGE_DEFAULT,
                   help="Tikhonov ridge, finite and >= 0 (0: truncated SVD)")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help=f"series coefficients, 1..{ORDER_MAX}")
    p.set_defaults(func=_cmd_construct_orbit)

    p = sub.add_parser("decompose", help="recover (a, M) from a monomial matrix")
    common(p)
    p.add_argument("--op", default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--ncap", type=int, default=64)
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylcalcError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                             **exc.fields}}
        try:
            out = _outdir(args)
            # the parsed parameters, as in the success manifests; the
            # output directory is left out so the bytes do not depend on it
            params = {k: v for k, v in vars(args).items()
                      if k not in ("command", "func", "outdir")}
            manifest = build_manifest(args.command, params)
            write_report(out / f"{args.command.replace('-', '_')}_error.json",
                         payload, manifest)
        except (IoFailure, NonFiniteCoefficient):
            pass  # no artifact: the directory failed, or a diagnostic is not finite
        print(f"negative result: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
