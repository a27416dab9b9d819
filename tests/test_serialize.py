"""Bit-stable serialization, operator specs and manifests."""

import json
import tempfile
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylcalc import serialize
from weylcalc.errors import MalformedSpec, NonFiniteCoefficient, ZeroOperator
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


def _fmt_float_reference(x: float) -> str:
    # the formatter as it was before the exact-type dispatch, the reference
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFiniteCoefficient(f"non-finite value {x} cannot be serialized")
    return f"{x:.17g}"


def _dumps_reference(obj) -> str:
    # the isinstance chain as it was before the exact-type dispatch
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_reference(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float_reference(obj.real)}, {_fmt_float_reference(obj.imag)}]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_dumps_reference(v) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        items = [f'"{k}": {_dumps_reference(obj[k])}' for k in sorted(obj, key=str)]
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _outcome(dumps, obj):
    try:
        return dumps(obj)
    except Exception as exc:  # both functions must fail alike
        return type(exc), str(exc)


class _FloatSubclass(float):
    pass


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # nan and the infinities included
    st.text(),
    st.complex_numbers(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.complex_numbers().map(np.complex128),
    st.booleans().map(np.bool_),  # refused by both
    st.floats().map(_FloatSubclass),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), inner, max_size=5),
        st.dictionaries(st.integers(0, 3), inner, max_size=3).map(OrderedDict),
        st.lists(st.floats(), max_size=5).map(np.array),
        st.lists(st.complex_numbers(), max_size=5).map(np.array),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"b": [0.1, -0.0, 1e300, 5e-324], "a": {"x": None, 1: True}})
@example([float("nan")])
@example(np.array([1 + 1j, complex(2, float("nan")), complex(float("inf"), 0)]))
@example(np.float64(-0.0))
@example(OrderedDict([(1, "int key"), ("1", "str key")]))  # keys of one str
def test_stable_json_equals_the_isinstance_chain(obj):
    assert _outcome(stable_json_dumps, obj) == _outcome(_dumps_reference, obj)


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


def test_series_json_is_its_label_and_coefficients():
    # a series is its coefficients: no second length is written or read
    doc = {"coeffs": [[1.0, 0.0], [0.0, 0.0], [5.0, 0.0]], "label": "q"}
    s = series_from_dict(doc)
    assert np.array_equal(s.coeffs, [1.0, 0.0, 5.0])
    assert series_to_dict(s) == doc
    for valid in (1, 3):
        with pytest.raises(MalformedSpec, match="unknown key"):
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
    assert m["timestamp"] == "fixed-stamp"
    assert m["command"] == "probe"


def test_manifest_input_hashes(tmp_path):
    p = tmp_path / "input.json"
    p.write_text("{}", encoding="utf-8")
    m = build_manifest("probe", {}, inputs=[p])
    assert len(m["input_hashes"]) == 1
    assert m["input_hashes"][0].startswith("sha256:")


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


def _reference_csv(header, columns) -> bytes:
    """The table formatted cell by cell: bools as 1/0, floats as .17g,
    anything else as ``str``, quoted with each quote doubled when it holds
    a comma, quote, CR or LF (RFC 4180)."""
    def cell(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return f"{v:.17g}"
        text = str(v)
        if set(text) & set(',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    cols = [c.ravel().tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [header, *zip(*cols)]
    return "".join(",".join(map(cell, row)) + "\n" for row in lines).encode()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
INT64_MIN, INT64_MAX, UINT64_MAX = -2**63, 2**63 - 1, 2**64 - 1
#: cell strategies and array dtypes of the column kinds; "mixed" and
#: "nul" are lists
_CELLS = {
    "int64": (st.one_of(st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]),
                        st.integers(INT64_MIN, INT64_MAX)), np.int64),
    "uint64": (st.one_of(st.sampled_from([UINT64_MAX, 2**64 - 2, 2**63, 0]),
                         st.integers(0, UINT64_MAX)), np.uint64),
    # the two ends of a type's range in one block
    "int64 ends": (st.sampled_from([INT64_MIN, INT64_MAX]), np.int64),
    "uint64 ends": (st.sampled_from([UINT64_MAX, 0]), np.uint64),
    "float": (st.one_of(st.sampled_from(EDGE_FLOATS), _FINITE), np.float64),
    "mixed": (st.one_of(
        st.sampled_from(["", "\x00", "a\x00", "\x00b\x00", "é", "日本", "inf"]),
        st.text(), st.booleans(), st.integers(), _FINITE), None),
    # text cells with interior and trailing NUL bytes
    "nul": (st.one_of(st.sampled_from(["\x00", "a\x00", "\x00\x00", "", "7"]),
                      st.text(st.sampled_from("\x00a-7,é"))), None),
}
#: the nonzero cells of a commutator-shaped listing
_SPARSE = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                     1.0, -2.5]), _FINITE)


@st.composite
def _narrow_ints(draw, n):
    """An integer column of a range narrower than its length, around a
    negative value (INT64_MIN included)."""
    base = draw(st.one_of(st.integers(-8, -1), st.integers(INT64_MIN, -9)))
    offsets = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    return np.array(offsets, dtype=np.int64) + np.int64(base)


@st.composite
def _column_tables(draw, n):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS) + ["narrow"]),
                          min_size=1, max_size=5))
    cols = []
    for kind in kinds:
        if kind == "narrow":
            cols.append(draw(_narrow_ints(n)))
            continue
        cells, dtype = _CELLS[kind]
        values = draw(st.lists(cells, min_size=n, max_size=n))
        cols.append(values if dtype is None else np.array(values, dtype=dtype))
    return [f"c{i}" for i in range(len(cols))], cols


@st.composite
def _commutator_listings(draw, shape):
    """As commutator_matrix.csv: the np.indices of a matrix beside the
    real and imaginary parts of its entries, almost all +0.0."""
    entries = np.zeros(draw(shape), dtype=np.complex128)
    parts = entries.view(np.float64).reshape(-1)
    at = draw(st.lists(st.integers(0, parts.size - 1), max_size=12))
    parts[at] = draw(st.lists(_SPARSE, min_size=len(at), max_size=len(at)))
    rows, cols = np.indices(entries.shape)
    return ["row", "col", "re", "im"], [rows, cols, entries.real, entries.imag]


@st.composite
def _tables(draw):
    if draw(st.booleans()):
        return draw(_column_tables(draw(st.integers(0, 12))))
    return draw(_commutator_listings(st.tuples(st.integers(1, 4), st.integers(1, 4))))


@settings(max_examples=300, deadline=None)
@given(table=_tables(), block=st.integers(1, 7))
def test_write_csv_equals_cell_by_cell_reference(table, block):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        with mock.patch.object(serialize, "CSV_BLOCK_ROWS", block):
            write_csv(path, header, columns)
        assert path.read_bytes() == _reference_csv(header, columns)


@st.composite
def _full_block_tables(draw):
    """Tables past one block of CSV_BLOCK_ROWS rows: a commutator listing,
    or a small table repeated beside random integers of each type's full
    range."""
    if draw(st.booleans()):
        return draw(_commutator_listings(st.tuples(st.integers(41, 90),
                                                   st.integers(100, 110))))
    header, columns = draw(_column_tables(draw(st.integers(1, 12))))
    size = len(columns[0])
    reps = -(-(serialize.CSV_BLOCK_ROWS + draw(st.integers(1, 4))) // size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = [rng.integers(INT64_MIN, INT64_MAX, size * reps, np.int64, endpoint=True),
            rng.integers(0, UINT64_MAX, size * reps, np.uint64, endpoint=True)]
    columns = [c * reps if isinstance(c, list) else np.tile(c, reps) for c in columns]
    return header + ["w0", "w1"], columns + wide


@settings(max_examples=30, deadline=None)
@given(table=_full_block_tables())
def test_write_csv_in_full_blocks_equals_cell_by_cell_reference(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == _reference_csv(header, columns)
