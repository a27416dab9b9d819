"""SHA-256 of every artifact the benchmark workloads write.

Usage, from the root of a source checkout::

    python3 tools/artifact_digests.py [--seeds 0 1] [--keep DIR]

Every operation of ``bench/workloads.py`` (the orbit, fit and algebra
workloads) runs once per seed through ``weylcalc.cli.main``, in
``<tmp>/<seed>/<op name>``, with the benchmark's manifest timestamp, so
the bytes do not depend on the clock.  Nor do they depend on the
machine's thread count: importing ``weylcalc.cli`` sets the BLAS thread
variables to 1 before numpy is first loaded, and nothing here imports
numpy before it.  One ``sha256  <path>`` line is printed per artifact, sorted
by path.  Two checkouts write the same artifacts when ``diff`` finds no
difference between their outputs.  With ``--keep DIR`` the artifacts are
written under ``DIR`` (which must not exist yet) and kept there, for
``tools/artifact_drift.py`` to say how far their values moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--keep", type=Path, help="write the artifacts here and keep them")
    args = parser.parse_args(argv)
    if args.keep is not None and args.keep.exists():
        parser.error(f"--keep: {args.keep} already exists")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from run import TIMESTAMP

    os.environ["WEYLCALC_TIMESTAMP"] = TIMESTAMP
    from workloads import WORKLOADS
    from weylcalc import cli

    with contextlib.ExitStack() as stack:
        base = args.keep or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for seed in args.seeds:
            for make_ops in WORKLOADS.values():
                for op in make_ops(seed):
                    outdir = base / str(seed) / op.name
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.main(op.argv + ["--outdir", str(outdir)])
        paths = {p.relative_to(base).as_posix(): p for p in base.rglob("*") if p.is_file()}
        for name in sorted(paths):
            print(f"{hashlib.sha256(paths[name].read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
