"""Alternating parent/change runs of the benchmark, summarised per metric.

Usage, with two source checkouts::

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

Each of the N pairs runs ``bench/run.py --workload W --seed S --trace 0``
once from the root of each checkout, at the benchmark's own run length,
the parent first in even pairs (0, 2, ...) and the change first in odd
ones, so that a drift of the machine falls on both sides alike.  The last line of a run, its
JSON result, is kept.  The summary is printed as JSON, in the layout of
the ``workloads`` entries of the ``BENCH_<n>.json`` files, under the key
``W/seedS``: per side the runs' ``attempted``, ``failed`` and
``correct``, and per metric each side's runs, median and inclusive
quartiles, the number of pairs in which the change was lower (every
end-to-end metric is better lower) and the relative change of the
medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run from ``checkout``: the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def _spread(runs: list) -> dict:
    """Median and inclusive quartiles."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": _round(median), "q1": _round(q1), "q3": _round(q3)}


def summarize(results: dict) -> dict:
    """The ``workloads`` entry of the pairs: ``results`` maps each side to
    its run results, pair by pair."""
    parent, change = (results[side] for side in SIDES)
    metrics = {}
    for name, first in parent[0]["metrics"].items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        spread = {side: _spread(runs[side]) for side in SIDES}
        metrics[name] = {
            "unit": first["unit"],
            **spread,
            **{f"{side}_runs": [_round(v) for v in runs[side]] for side in SIDES},
            "change_lower_in_pairs": sum(c < p for p, c in zip(runs["parent"],
                                                               runs["change"])),
            "relative_change": round(
                statistics.median(runs["change"]) / statistics.median(runs["parent"])
                - 1, 4),
        }
    return {
        "pairs": len(change),
        **{key: {side: [r[key] for r in results[side]] for side in SIDES}
           for key in ("attempted", "failed")},
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def main(argv=None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=["orbit", "fit", "algebra"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs: expected at least 1")

    checkouts = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run(checkouts[side], args.workload, args.seed)
            results[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"pair {pair} {side}: wall_s {wall}, failed {result['failed']}",
                  file=sys.stderr)
    print(json.dumps({f"{args.workload}/seed{args.seed}": summarize(results)}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
