"""The accuracy numbers of the orbit constructor, one line each, for diffing
across checkouts.

Usage, from the root of a source checkout::

    python3 tools/accuracy_ledger.py [--instance NAME ...]

Each instance is one ``construct-orbit`` run through ``weylcalc.cli.main``
in a temporary directory, on the unit disk with epsilon 0.1: A = T or
A = T + T^2 for T = D - zI with the targets 1, z or 1, z, z^2, and A = T
for T = D (a = 0, the exponential family) with 1, z or the six targets
1, z, 1, z, 1, z, each at ridge 1e-10 and 0; twelve instances named like
``T+T2:1,z:ridge=0``.  One line
``NAME  QUANTITY  VALUES`` is printed per instance and quantity, sorted,
every number to two significant digits, so that last-bit drift does not
show and a real move does:

* ``exit``: the exit code, followed by the error type when the run ended
  in one (the other quantities are then absent);
* ``condition``: the condition estimate of the stacked solve;
* ``max|x_mu^n|``: the largest eigen-coordinate |x_i mu_i^n| at each
  scheduled iterate n;
* ``eigen_error_full`` and ``method_discrepancy``: the verification
  numbers at each scheduled iterate.

A value at an iterate reads ``n=5:2.3e-02``.  Two checkouts give the same
numbers when ``diff`` finds no difference between their outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: a and L of L(T) = T or T + T^2 for T = D - zI, and L(T) = T for T = D
OPERATORS = {
    "T": {"a": [1, 0], "L": [[0, 0], [1, 0]]},
    "T+T2": {"a": [1, 0], "L": [[0, 0], [1, 0], [1, 0]]},
    "D": {"a": [0, 0], "L": [[0, 0], [1, 0]]},
}

#: the targets 1, z, z^2 by name
MONOMIALS = {"1": [[1, 0]], "z": [[0, 0], [1, 0]], "z2": [[0, 0], [0, 0], [1, 0]]}

#: the target lists of each operator
TARGET_LISTS = {
    "T": (("1", "z"), ("1", "z", "z2")),
    "T+T2": (("1", "z"), ("1", "z", "z2")),
    "D": (("1", "z"), ("1", "z") * 3),
}

RIDGES = ("1e-10", "0")

INSTANCES = [f"{op}:{','.join(targets)}:ridge={ridge}"
             for op, lists in TARGET_LISTS.items() for targets in lists
             for ridge in RIDGES]


def _num(x: float) -> str:
    return f"{x:.1e}"


def _complex(pairs) -> list:
    return [complex(re, im) for re, im in pairs]


def _argv(name: str) -> list:
    op, targets, ridge = name.split(":")
    problem = {
        "operator": {"d": [[0, 0], [1, 0]], **OPERATORS[op]},
        "targets": [{"coeffs": MONOMIALS[q]} for q in targets.split(",")],
        "radius": 1.0,
        "epsilon": 0.1,
    }
    return ["construct-orbit", "--problem", json.dumps(problem),
            "--ridge", ridge.removeprefix("ridge=")]


def ledger_lines(name: str, run) -> list:
    """The lines of one instance; ``run(argv, outdir)`` is the CLI's main."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(_argv(name) + ["--outdir", tmp])
        out = Path(tmp)
        if not (out / "orbit.json").exists():
            [error] = out.glob("*_error.json")
            kind = json.loads(error.read_text())["error"]["type"]
            return [f"{name}  exit  {code} {kind}"]
        doc = json.loads((out / "orbit.json").read_text())
    schedule = doc["schedule"]
    mu = _complex(doc["eigenvalues"])
    # block 0 holds x mu^(n_1), and x mu^n = x mu^(n_1) mu^(n - n_1)
    first = _complex(doc["blocks"][0]["weights"])
    peaks = [max(abs(w * m ** (n - schedule[0])) for w, m in zip(first, mu))
             for n in schedule]
    rows = doc["verification"]

    def at_iterates(values) -> str:
        return " ".join(f"n={n}:{_num(v)}" for n, v in zip(schedule, values))

    return [
        f"{name}  exit  {code}",
        f"{name}  condition  {_num(doc['report']['condition'])}",
        f"{name}  max|x_mu^n|  {at_iterates(peaks)}",
        *(f"{name}  {key}  {at_iterates(row[key] for row in rows)}"
          for key in ("eigen_error_full", "method_discrepancy")),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instance", nargs="+", choices=INSTANCES, default=INSTANCES,
                        help="instances to run (default: all twelve)")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src")]
    from weylcalc import cli

    lines = [line for name in args.instance for line in ledger_lines(name, cli.main)]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
