"""The tools under ``tools/``: how far two artifact sets moved,
alternating benchmark pairs (on canned run results, never the benchmark),
and the accuracy ledger's line format and exit codes."""

import importlib.util
import json
import re
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_DATA = Path(__file__).resolve().parent / "data"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drift():
    return _tool("artifact_drift").drift


def _write(root: Path, name: str, text: str) -> None:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_artifact_drift_reports_the_largest_change_per_field(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "0/fit/complete_fit.json", json.dumps({
        "fits": [{"residual_norm": 1.0, "weights": [[3.0, 4.0]], "status": "ok"},
                 {"residual_norm": 2.0, "weights": [[1.0, 0.0]], "status": "ok"}],
        "schedule": [5, 10], "valid_order": 3}))
    _write(b, "0/fit/complete_fit.json", json.dumps({
        "fits": [{"residual_norm": 1.5, "weights": [[3.0, 4.0]], "status": "ok"},
                 {"residual_norm": 2.0, "weights": [[1.0, 1e-16]], "status": "bad"}],
        "schedule": [5, 10]}))
    _write(a, "0/fit/residual_curve.csv", "count,residual\n5,1\n10,inf\n")
    _write(b, "0/fit/residual_curve.csv", "count,residual\n5,1.25\n10,inf\n")
    _write(a, "0/fit/gone.txt", "x")
    assert _drift()(a, b) == [
        # |[1, 1e-16] - [1, 0]| / |[1, 1e-16]|: one complex number, not two
        "0/fit/complete_fit.json  fits[].residual_norm  max_rel=0.333  changed 1 of 2",
        "0/fit/complete_fit.json  fits[].status  max_rel=0  changed 0 of 0, text changed 1",
        "0/fit/complete_fit.json  fits[].weights[]  max_rel=1e-16  changed 1 of 2",
        "0/fit/residual_curve.csv  :residual  max_rel=0.2  changed 1 of 1",
        "- 0/fit/complete_fit.json  valid_order",
        "- 0/fit/gone.txt",
        "largest relative change 0.333; 4 field(s) moved, 2 present on one side only",
    ]


def _run_result(wall: float, rss: float, failed: int = 0) -> dict:
    """The last-line JSON of a ``bench/run.py --trace 0`` run."""
    return {"correct": failed == 0, "attempted": 60, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_bench_pairs_alternates_and_summarises(tmp_path, capsys):
    # canned runs: the parent's wall_s 1.0, 1.2, 1.1, 1.4 and the
    # change's 0.9, 1.3, 0.8, 1.0, in pair order
    walls = {"P": [1.0, 1.2, 1.1, 1.4], "C": [0.9, 1.3, 0.8, 1.0]}
    calls = []

    def run(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        k = sum(name == checkout.name for name, *_ in calls) - 1
        return _run_result(walls[checkout.name][k], 48.0 + (checkout.name == "C"),
                           failed=int(checkout.name == "C" and k == 3))

    code = _tool("bench_pairs").main(
        [str(tmp_path / "P"), str(tmp_path / "C"), "--workload", "fit", "--seed", "7",
         "--pairs", "4"], run=run)
    assert code == 0
    # the parent first in even pairs, the change first in odd ones
    assert [name for name, *_ in calls] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert {tuple(rest) for _, *rest in calls} == {("fit", 7)}
    entry = json.loads(capsys.readouterr().out)
    assert list(entry) == ["fit/seed7"]
    summary = entry["fit/seed7"]
    assert summary["pairs"] == 4
    assert summary["attempted"] == {"parent": [60] * 4, "change": [60] * 4}
    assert summary["failed"] == {"parent": [0] * 4, "change": [0, 0, 0, 1]}
    assert summary["correct"] == {"parent": True, "change": False}
    wall = summary["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent_runs"] == walls["P"] and wall["change_runs"] == walls["C"]
    # inclusive quartiles of 1.0, 1.1, 1.2, 1.4 and of 0.8, 0.9, 1.0, 1.3
    assert wall["parent"] == {"median": 1.15, "q1": 1.075, "q3": 1.25}
    assert wall["change"] == {"median": 0.95, "q1": 0.875, "q3": 1.075}
    assert wall["change_lower_in_pairs"] == 3
    assert wall["relative_change"] == round(0.95 / 1.15 - 1, 4)
    # the per-pair ratios 0.9, 1.3/1.2, 0.8/1.1, 1.0/1.4: four pairs give
    # no sign-test interval
    assert wall["pair_ratio_median"] == 0.813636
    assert wall["pair_ratio_interval"] is None and wall["resolved"] is False
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_lower_in_pairs"] == 0 and rss["relative_change"] == 0.0208


def test_bench_pairs_interval_is_the_sign_test_order_statistics():
    # n pairs with the ratios 1 + j / 100, j < n, in shuffled pair order:
    # the interval is [r_(k), r_(n+1-k)] with k = 1 for n = 6..8 and
    # k = 2 for n = 9, 10, and none below 6 pairs
    summarize = _tool("bench_pairs").summarize
    expected = {5: None, 6: [1.0, 1.05], 8: [1.0, 1.07], 9: [1.01, 1.07],
                10: [1.01, 1.08]}
    for n, interval in expected.items():
        order = sorted(range(n), key=lambda j: (3 * j) % n)
        results = {"parent": [_run_result(1.0, 48.0) for _ in order],
                   "change": [_run_result(1 + j / 100, 48.0) for j in order]}
        wall = summarize(results)["metrics"]["wall_s"]
        assert wall["pair_ratio_interval"] == interval, n
        assert wall["resolved"] is (interval is not None and interval[0] > 1), n
        assert wall["pair_ratio_median"] == round(1 + (n - 1) / 200, 6), n


def test_accuracy_ledger_prints_one_sorted_line_per_quantity(capsys):
    # the format of the lines, not the values they hold
    ledger = _tool("accuracy_ledger")
    assert len(ledger.INSTANCES) == 12
    name = "T+T2:1,z:ridge=1e-10"
    assert ledger.main(["--instance", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == sorted(lines)
    number = r"-?\d\.\de[+-]\d\d"
    at_iterates = rf"n=3:{number} n=6:{number}"
    patterns = {
        "condition": number,
        "eigen_error_full": at_iterates,
        "exit": r"[01]",
        "max|x_mu^n|": at_iterates,
        "method_discrepancy": at_iterates,
    }
    assert [line.split("  ")[:2] for line in lines] == [[name, q] for q in patterns]
    for line, pattern in zip(lines, patterns.values()):
        assert re.fullmatch(pattern, line.split("  ")[2]), line


def test_accuracy_ledger_exit_codes_match_the_committed_copy(capsys):
    # an exit code that flips fails here until tests/data/ledger_exits.txt
    # is updated with it
    assert _tool("accuracy_ledger").main([]) == 0
    exits = [line for line in capsys.readouterr().out.splitlines()
             if line.split("  ")[1] == "exit"]
    committed = (_DATA / "ledger_exits.txt").read_text(encoding="utf-8").splitlines()
    assert exits == committed
