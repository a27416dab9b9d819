"""The artifact tools under ``tools/``: how far two artifact sets moved."""

import importlib.util
import json
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _drift():
    spec = importlib.util.spec_from_file_location("artifact_drift", _TOOLS / "artifact_drift.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.drift


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
