"""Bit-stable serialization, operator specs and manifests."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylcalc import serialize
from weylcalc.errors import MalformedSpec, ZeroOperator
from weylcalc.operators import CompositeOperator, WeylOperator, diff_op
from weylcalc.serialize import (
    build_manifest,
    operator_to_dict,
    parse_operator_spec,
    series_from_dict,
    series_to_dict,
    stable_json_dumps,
    write_csv,
    write_report,
)
from weylcalc.series import make_series


def test_stable_json_sorted_keys_and_float_format():
    out = stable_json_dumps({"b": 0.1, "a": 2})
    assert out == '{"a": 2, "b": 0.10000000000000001}'


def test_stable_json_complex_as_pair():
    assert stable_json_dumps(1 + 2j) == "[1, 2]"


def test_stable_json_rejects_non_finite():
    with pytest.raises(ValueError):
        stable_json_dumps(float("nan"))


def test_series_round_trip():
    s = make_series([1.0, 0.5 - 0.25j, 3.0], label="probe")
    back = series_from_dict(series_to_dict(s))
    assert np.array_equal(back.coeffs, s.coeffs)
    assert len(back) == len(s)
    assert back.label == s.label


def test_series_from_dict_validation():
    with pytest.raises(MalformedSpec):
        series_from_dict({"coeffs": []})
    with pytest.raises(MalformedSpec):
        series_from_dict({"coeffs": [[1.0]]})
    with pytest.raises(MalformedSpec):
        series_from_dict({"coeffs": [[1.0, 0.0]], "valid_order": 7})


def test_series_from_dict_keeps_the_valid_prefix():
    doc = {"coeffs": [[1.0, 0.0], [0.0, 0.0], [5.0, 0.0]], "valid_order": 1}
    s = series_from_dict(doc)
    assert np.array_equal(s.coeffs, [1.0])
    assert series_to_dict(s)["valid_order"] == 1
    # JSON true passes isinstance(v, int); it is no coefficient count
    for valid in (0, 4, True, False):
        with pytest.raises(MalformedSpec):
            series_from_dict({**doc, "valid_order": valid})


def test_operator_round_trip_weyl():
    t = WeylOperator(diff_op(2), 0.5 - 0.5j)
    back = parse_operator_spec(operator_to_dict(t))
    assert isinstance(back, WeylOperator)
    assert np.array_equal(back.m.d, t.m.d)
    assert back.a == t.a


def test_operator_round_trip_composite():
    c = CompositeOperator(
        WeylOperator(diff_op(1), 1.0), np.array([0.0, 1.0, 1.0])
    )
    back = parse_operator_spec(operator_to_dict(c))
    assert isinstance(back, CompositeOperator)
    assert np.array_equal(back.l, c.l)
    assert back.base.a == c.base.a


def test_parse_operator_named_examples():
    t = parse_operator_spec({"d": [[0, 0], [1, 0]], "a": [1, 0]})
    assert t.m.order == 1 and t.a == 1.0
    t2 = parse_operator_spec({"d": [[0, 0], [0, 0], [1, 0]], "a": [1, 0]})
    assert t2.m.order == 2
    with pytest.raises(ZeroOperator):
        parse_operator_spec({"d": [[0, 0]]})
    with pytest.raises(MalformedSpec):
        parse_operator_spec({"a": [1, 0]})
    with pytest.raises(MalformedSpec):
        parse_operator_spec({"d": [[1.0]], "a": [1, 0]})


def test_manifest_timestamp_env(monkeypatch):
    monkeypatch.setenv("WEYLCALC_TIMESTAMP", "fixed-stamp")
    m = build_manifest("probe", {"x": 1})
    assert m.timestamp == "fixed-stamp"
    assert m.command == "probe"


def test_manifest_input_hashes(tmp_path):
    p = tmp_path / "input.json"
    p.write_text("{}", encoding="utf-8")
    m = build_manifest("probe", {}, inputs=[p])
    assert len(m.input_hashes) == 1
    assert m.input_hashes[0].startswith("sha256:")


def test_write_report_embeds_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLCALC_TIMESTAMP", "fixed-stamp")
    m = build_manifest("probe", {"k": 1})
    path = tmp_path / "report.json"
    write_report(path, {"value": 0.5}, m)
    text = path.read_text(encoding="utf-8")
    assert '"manifest"' in text
    assert '"timestamp": "fixed-stamp"' in text


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["i", "x"], [[0, 1], [0.1, 2.0]])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,x"
    assert lines[1] == "0,0.10000000000000001"


# ---------------------------------------------------------------------------
# column writer


def _write_lines(header, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, header, columns)
        return path.read_text(encoding="utf-8").split("\n")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0]


@settings(max_examples=200, deadline=None)
@given(
    col=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    block=st.integers(1, 7),
)
@example(col=EDGE_FLOATS, block=4)
@example(col=[], block=1)
def test_float_column_renders_as_17g(col, block):
    with mock.patch.object(serialize, "CSV_BLOCK_ROWS", block):
        lines = _write_lines(["x"], [np.array(col, dtype=float)])
    assert lines == ["x"] + [f"{x:.17g}" for x in col] + [""]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [0, 5, 9])
def test_non_finite_float_column_raises_and_writes_nothing(tmp_path, bad, where):
    col = np.zeros(10)
    col[where] = bad
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=f"^non-finite value {bad} cannot be serialized$"):
        write_csv(path, ["i", "x"], [np.arange(10), col])
    assert not path.exists()


@given(col=st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
@settings(deadline=None)
def test_integer_column_renders_as_str(col):
    lines = _write_lines(["n"], [np.array(col, dtype=np.int64)])
    assert lines == ["n"] + [str(v) for v in col] + [""]


def test_mixed_column_renders_cell_by_cell():
    # as residual_curve.csv: a failed fit's residual is the text "inf"
    col = [2.5e-3, "inf", 0.0, -0.0, 7, True, "conditioning-failure", np.float64(0.1)]
    lines = _write_lines(["residual"], [col])
    assert lines[1:] == ["0.0025000000000000001", "inf", "0", "-0", "7", "1",
                         "conditioning-failure", "0.10000000000000001", ""]
    with pytest.raises(ValueError, match="^non-finite value inf cannot be serialized$"):
        _write_lines(["residual"], [[0.5, float("inf")]])


def test_row_count_off_the_block_size(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * serialize.CSV_BLOCK_ROWS + 5
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.7] = 0.0
    x[:3] = -0.0
    lines = _write_lines(["i", "x", "tag"], [np.arange(n), x, ["a"] * n])
    assert len(lines) == n + 2 and lines[-1] == ""
    assert lines[1:-1] == [f"{i},{v:.17g},a" for i, v in enumerate(x.tolist())]


def test_columns_must_match_the_header(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])
