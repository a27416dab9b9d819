"""End-to-end benchmark of the weylcalc CLI.

Usage, from the root of a source checkout (the package need not be
installed; ``src/`` is put on the path here)::

    python3 bench/run.py --workload orbit|fit|algebra [--seed 0]
                         [--seconds 35] [--trace 0|1]

One closed-loop client runs the workload's operations one at a time:

* ``--trace 0``: ``setup_s`` from fresh-process imports of
  ``weylcalc.cli``, an untimed warm-up pass through ``cli.main``, then
  for ``--seconds`` an in-process pass (``wall_s``) and a pass running
  each operation as a fresh ``python -m weylcalc.cli`` process
  (``cold_wall_s``, ``peak_rss_mb``) in turn.  A pass starts only when it
  is expected to end in time, and each kind runs at least once.
* ``--trace 1``: the warm-up pass, then untraced and traced in-process
  passes in turn; prints per-layer self times and counts (the smallest
  over the traced passes) and the tracing overhead.

``setup_s`` is the median import; ``wall_s`` and ``cold_wall_s`` sum each
operation's median over the run's passes, so that one slow second on a
shared machine moves the figure little.

Every invocation's artifacts are checked by ``checks.py``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: thread pools of every BLAS numpy may be built against, pinned to one
#: thread so the single client never runs more threads than cores
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: manifest timestamp, so repeated invocations write identical bytes
TIMESTAMP = "2000-01-01T00:00:00+00:00"

SETUP_REPEATS = 9

UNITS = {"setup_s": "s", "wall_s": "s", "cold_wall_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Runs operations warm or cold and judges every invocation's artifacts."""

    def __init__(self, ops, workdir: Path, env: dict):
        from checks import CHECKS

        self.ops = ops
        self.workdir = workdir
        self.env = env
        self.checks = CHECKS
        self.verdicts = {}  # artifact digest -> problems
        #: mode -> op name -> [(start, end)] of each timed invocation
        self.times = {"warm": {op.name: [] for op in ops}, "cold": {op.name: [] for op in ops}}
        self.attempted = 0
        self.failed = {}  # op name -> [count, problems]
        self.cold_rss_kb = 0
        self.tracer = None

    def _outdir(self, op) -> Path:
        path = self.workdir / re.sub(r"[^A-Za-z0-9_.-]", "_", op.name)
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def warm(self, op):
        """Run ``op`` through cli.main; the (start, end) of the call."""
        from weylcalc import cli

        outdir = self._outdir(op)
        sink = io.StringIO()
        if self.tracer:
            self.tracer.begin_op(op.name)
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(op.argv + ["--outdir", str(outdir)])
        end = time.perf_counter()
        self._judge(op, outdir, rc, sink.getvalue())
        return start, end

    def cold(self, op):
        """Run ``op`` as a fresh process; the (start, end) of the process."""
        outdir = self._outdir(op)
        argv = [sys.executable, "-m", "weylcalc.cli", *op.argv, "--outdir", str(outdir)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        with proc.stderr:
            stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cold_rss_kb = max(self.cold_rss_kb, usage.ru_maxrss)
        self._judge(op, outdir, proc.returncode, stderr.decode(errors="replace"))
        return start, end

    def _judge(self, op, outdir: Path, rc: int, log: str) -> None:
        digest = hashlib.sha256(f"{op.name}\0{rc}".encode())
        for path in sorted(outdir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        key = digest.hexdigest()
        if key not in self.verdicts:
            try:
                problems = self.checks[op.kind](op.spec, outdir, rc)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable artifacts: {exc!r}"]
            if problems and log.strip():
                problems.append("program output: " + log.strip().splitlines()[-1])
            self.verdicts[key] = problems
        self.attempted += 1
        problems = self.verdicts[key]
        if problems:
            entry = self.failed.setdefault(op.name, [0, problems])
            entry[0] += 1

    def run_pass(self, mode: str) -> float:
        """Every operation once; seconds of the pass."""
        run = self.warm if mode == "warm" else self.cold
        total = 0.0
        for op in self.ops:
            start, end = run(op)
            self.times[mode][op.name].append((start, end))
            total += end - start
        return total

    def estimate(self, mode: str) -> float:
        """Seconds of one pass: per-operation medians, summed."""
        return sum(
            statistics.median(end - start for start, end in runs)
            for runs in self.times[mode].values()
        )

    def measure_setup(self) -> float:
        """Median seconds for a fresh process to import weylcalc.cli."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import weylcalc.cli"], cwd=ROOT,
                           env=self.env, check=True, stdin=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def traced_pass(self):
        from tracing import Tracer

        self.tracer = Tracer()
        self.tracer.install()
        try:
            wall = _seconds(self.warm(op) for op in self.ops)
        finally:
            self.tracer.uninstall()
        layers, spans = self.tracer.take()
        self.tracer = None
        return wall, layers, spans


def _alternate(steps, deadline: float) -> list:
    """Run ``steps`` in turn, each at least once, while the next one is
    expected (from its last duration) to end by the deadline; their results."""
    results = [[] for _ in steps]
    took = [0.0] * len(steps)
    i = 0
    while i < len(steps) or time.perf_counter() + took[i % len(steps)] <= deadline:
        k = i % len(steps)
        start = time.perf_counter()
        results[k].append(steps[k]())
        took[k] = time.perf_counter() - start
        i += 1
    return results


def _seconds(intervals) -> float:
    return sum(end - start for start, end in intervals)


def environment() -> dict:
    import mpmath
    import numpy as np
    from weylcalc import accel

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in BLAS_PINS},
        "weylcalc_backend": accel.backend(),
    }


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["orbit", "fit", "algebra"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "weylcalc" / "cli.py").is_file():
        print(f"error: no weylcalc sources under {src}", file=sys.stderr)
        return 2
    # pins must be in place before numpy is first imported
    os.environ.update(BLAS_PINS)
    os.environ["WEYLCALC_TIMESTAMP"] = TIMESTAMP
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(src))
    env = dict(os.environ)

    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    runner = Runner(ops, workdir, env)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operations": [op.name for op in ops]}
    try:
        if not args.trace:
            setup_s = runner.measure_setup()
        import weylcalc.cli  # noqa: F401  (import cost is setup_s, paid before timing)

        result["environment"] = environment()
        for op in ops:  # warm-up: lazy imports, first SVD, allocator
            runner.warm(op)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            untraced, traced = _alternate(
                [lambda: _seconds(runner.warm(op) for op in ops), runner.traced_pass],
                deadline)
            layer_runs = [layers for _, layers, _ in traced]
            metrics = {name: min(run[name] for run in layer_runs) for name in layer_runs[0]}
            metrics["trace.wall_s"] = min(untraced)
            metrics["trace.traced_wall_s"] = min(wall for wall, _, _ in traced)
            metrics["trace.overhead_ratio"] = metrics["trace.traced_wall_s"] / metrics["trace.wall_s"]
            OUT.mkdir(parents=True, exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for op, name, parent, duration, self_s in traced[-1][2]:
                    fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                         "duration_s": duration, "self_s": self_s}) + "\n")
        else:
            warm, cold = _alternate(
                [lambda: runner.run_pass("warm"), lambda: runner.run_pass("cold")], deadline)
            metrics = {
                "setup_s": setup_s,
                "wall_s": runner.estimate("warm"),
                "cold_wall_s": runner.estimate("cold"),
                "peak_rss_mb": runner.cold_rss_kb / 1024.0,
            }
            result["passes"] = {"warm": warm, "cold": cold}
            result["times"] = runner.times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(count for count, _ in runner.failed.values())
    known = {op.name: op.known_fault for op in ops}
    correct = all(known[name] for name in runner.failed)
    result.update(attempted=runner.attempted, failed=failed, correct=correct,
                  failures={name: {"count": count, "problems": problems,
                                   "known_fault": known[name]}
                            for name, (count, problems) in runner.failed.items()},
                  metrics={name: {"value": value, "unit": _unit(name)}
                           for name, value in metrics.items()})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"weylcalc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"operations: {len(ops)} per pass, attempted {runner.attempted}, failed {failed}")
    for name, (count, problems) in runner.failed.items():
        why = f"known fault: {known[name]}" if known[name] else "UNEXPECTED"
        print(f"  failed {name} x{count} ({why}): {'; '.join(problems)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {_unit(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
