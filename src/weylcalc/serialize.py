"""Bit-stable JSON/CSV serialization and run manifests.

All floats are rendered with 17 significant digits and all JSON keys are
sorted, so identical runs produce byte-identical artifacts.  A 1-d
complex array in a report is written as its ``[re, im]`` pairs in one
join, with no list per value.  CSV tables are passed as columns and
written in blocks of rows.  Each block is one record array of (cell,
separator) fields, each column's cells one fixed-width byte-string array,
so no Python code runs per row: an integer block of a range narrower
than the block formats each value of the range once and gathers, any
other integer block is formatted value by value; float cells are ``0``
for an exact ``+0.0``, and only the others go through ``.17g`` (``-0.0``
as ``-0``); text cells are encoded one by one, quoted as RFC 4180 quotes
them when they hold a comma, quote, CR or LF.  One pass over the
record's bytes drops the padding.  Every report embeds (JSON) or
accompanies (CSV) its run manifest, the dict of :func:`build_manifest`.
A NaN or infinite value cannot be serialized:
:class:`~weylcalc.errors.NonFiniteCoefficient`, a result outside the
double range.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IoFailure, MalformedSpec, NonFiniteCoefficient
from .operators import CompositeOperator, ConvolutionOperator, WeylOperator
from .series import TaylorSeries

TIMESTAMP_ENV = "WEYLCALC_TIMESTAMP"
WORKDIR_ENV = "WEYLCALC_WORKDIR"


# ---------------------------------------------------------------------------
# stable JSON


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteCoefficient(f"non-finite value {x} cannot be serialized")
    return f"{x:.17g}"


def _complex_pairs(arr: np.ndarray) -> str:
    """A 1-d complex array as its ``[re, im]`` pairs, in one join; the
    first non-finite part, in that order, is refused as ``_fmt_float``
    refuses it."""
    parts = arr.view(np.float64)
    bad = ~np.isfinite(parts)
    if bad.any():
        _fmt_float(float(parts[bad.argmax()]))
    pair = "[{:.17g}, {:.17g}]".format
    return "[" + ", ".join(map(pair, parts[0::2].tolist(), parts[1::2].tolist())) + "]"


def stable_json_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting.  The
    exact types a report is made of are dispatched first; a 1-d complex
    array is written as the list of its ``[re, im]`` pairs."""
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is np.ndarray and obj.dtype == np.complex128 and obj.ndim == 1:
        return _complex_pairs(np.ascontiguousarray(obj))
    if kind is list:
        return "[" + ", ".join([stable_json_dumps(v) for v in obj]) + "]"
    if kind is dict:
        items = [f'"{k}": {stable_json_dumps(obj[k])}' for k in sorted(obj, key=str)]
        return "{" + ", ".join(items) + "}"
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return stable_json_dumps(list(obj))
    if isinstance(obj, dict):
        return stable_json_dumps({k: obj[k] for k in obj})
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# series / operators


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair, what: str) -> complex:
    """The complex number of a JSON ``[re, im]`` pair of finite doubles.

    JSON ``true`` (a Python int), NaN, infinities and integers past the
    double range are rejected; a long value is shortened in the message.
    """
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max
            for v in pair
        )
    ):
        raise MalformedSpec(
            f"{what}: expected an [re, im] pair of finite numbers, "
            f"got {reprlib.repr(pair)}"
        )
    return complex(pair[0], pair[1])


def series_to_dict(s: TaylorSeries) -> dict:
    return {
        "label": s.label,
        "coeffs": [complex_pair(c) for c in s.coeffs],
    }


def check_keys(doc: dict, allowed: tuple, what: str) -> None:
    """Refuse a JSON object with a key outside ``allowed``, which would
    otherwise be ignored and its field's default used."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise MalformedSpec(
            f"{what}: unknown key(s) {', '.join(map(reprlib.repr, unknown))}; "
            f"expected only {', '.join(map(repr, allowed))}"
        )


def series_from_dict(d: dict) -> TaylorSeries:
    if not isinstance(d, dict) or not isinstance(d.get("coeffs"), list):
        raise MalformedSpec("series: expected an object with a 'coeffs' list")
    check_keys(d, ("coeffs", "label"), "series")
    coeffs = [pair_to_complex(p, "series.coeffs") for p in d["coeffs"]]
    if not coeffs:
        raise MalformedSpec("series.coeffs must be non-empty")
    return TaylorSeries(np.array(coeffs, dtype=np.complex128), str(d.get("label", "")))


def operator_to_dict(op) -> dict:
    if isinstance(op, ConvolutionOperator):
        return {"d": [complex_pair(c) for c in op.d], "a": [0.0, 0.0]}
    if isinstance(op, WeylOperator):
        return {
            "d": [complex_pair(c) for c in op.m.d],
            "a": complex_pair(op.a),
        }
    if isinstance(op, CompositeOperator):
        out = operator_to_dict(op.base)
        out["L"] = [complex_pair(c) for c in op.l]
        return out
    raise TypeError(f"cannot serialize operator {type(op).__name__}")


def parse_operator_spec(doc: dict):
    """Validated WeylOperator or CompositeOperator from its JSON form."""
    if not isinstance(doc, dict) or "d" not in doc:
        raise MalformedSpec("operator: expected an object with a 'd' field")
    check_keys(doc, ("d", "a", "L"), "operator")
    if not isinstance(doc["d"], list) or not doc["d"]:
        raise MalformedSpec("operator.d must be a non-empty list of [re, im]")
    d = [pair_to_complex(p, "operator.d") for p in doc["d"]]
    a = (
        pair_to_complex(doc["a"], "operator.a")
        if "a" in doc
        else complex(0.0)
    )
    m = ConvolutionOperator(np.array(d, dtype=np.complex128))  # ZeroOperator here
    t = WeylOperator(m, a)
    if "L" in doc:
        if not isinstance(doc["L"], list) or not doc["L"]:
            raise MalformedSpec("operator.L must be a non-empty list of [re, im]")
        l = [pair_to_complex(p, "operator.L") for p in doc["L"]]
        return CompositeOperator(t, np.array(l, dtype=np.complex128))
    return t


# ---------------------------------------------------------------------------
# CSV


#: rows formatted and written at a time; bounds the text held in memory
CSV_BLOCK_ROWS = 4096


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values):
    """A float array, or an integer array as int64 or uint64, flat and
    checked finite, kept for formatting block by block; any other column
    formatted cell by cell."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        values = values.ravel()
        if values.dtype.kind == "f":
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise NonFiniteCoefficient(
                    f"non-finite value {float(bad[0])} cannot be serialized"
                )
            return values
        return values.astype(np.uint64 if values.dtype.kind == "u" else np.int64,
                             copy=False)
    return [_cell(v) for v in values]


def _int_texts(col):
    """(lo, texts) for an integer column whose range is narrower than the
    column, texts[v - lo] the cell text of the value v, each value of the
    range formatted once; None for any other column."""
    if not (isinstance(col, np.ndarray) and col.dtype.kind in "iu" and col.size):
        return None
    lo, hi = col.min(), col.max()
    if int(hi) - int(lo) >= col.size:
        return None
    width = f"S{max(len(str(lo)), len(str(hi)))}"
    return lo, (np.arange(int(hi) - int(lo) + 1, dtype=col.dtype) + lo).astype(width)


def _cells(part, int_texts=None):
    """The cell texts of one column's block as one fixed-width byte-string
    array, and the byte length of each cell where a cell may hold a NUL
    byte (text cells only; None otherwise).  ``int_texts`` is the
    column's :func:`_int_texts`, gathered from when it is not None."""
    if not isinstance(part, np.ndarray):
        raw = [c.encode() for c in part]
        nul = any(b"\0" in c for c in raw)
        return np.array(raw, dtype="S"), (
            np.fromiter(map(len, raw), np.intp, len(raw)) if nul else None)
    if part.dtype.kind == "f":
        # most cells of a banded matrix are +0.0, whose f"{x:.17g}" is "0";
        # -0.0 goes through the formatter to keep its sign
        idx = np.flatnonzero((part != 0) | np.signbit(part))
        text = np.array([f"{x:.17g}" for x in part[idx].tolist()], dtype="S")
        cells = np.full(part.size, b"0", dtype=text.dtype)
        cells[idx] = text
        return cells, None
    if int_texts is not None:
        lo, texts = int_texts
        return texts[part - lo], None
    width = f"S{max(len(str(part.min())), len(str(part.max())))}"
    return part.astype(width), None


def _block_bytes(parts) -> bytes:
    """One block of rows, given by the :func:`_cells` of each column, as
    one record array of (cell, separator) fields, a comma after each cell
    and a newline after the last, filled one column at a time; the NUL
    padding of the fixed-width cells is then dropped in one pass over the
    record's bytes, by a length mask where a text cell holds NUL bytes of
    its own."""
    cells, lengths = zip(*parts)
    rec = np.empty(len(cells[0]), dtype=[
        field for i, c in enumerate(cells) for field in ((f"c{i}", c.dtype), (f"s{i}", "S1"))])
    for i, c in enumerate(cells):
        rec[f"c{i}"], rec[f"s{i}"] = c, b","
    rec[f"s{len(cells) - 1}"] = b"\n"
    if all(length is None for length in lengths):
        return rec.tobytes().translate(None, b"\0")
    raw = rec.view(np.uint8).reshape(len(rec), -1)
    keep = raw != 0
    for i, length in enumerate(lengths):
        if length is not None:
            dtype, offset = rec.dtype.fields[f"c{i}"]
            keep[:, offset:offset + dtype.itemsize] = (
                np.arange(dtype.itemsize) < length[:, None])
    return raw[keep].tobytes()


def write_csv(path: Path, header: list, columns) -> None:
    """CSV of equal-length columns, one per header name.

    Arrays are read flattened in C order.  A float array is written as
    ``f"{x:.17g}"`` of each value, an exact ``+0.0`` as ``0`` without
    the formatter; an integer array as ``str`` of each value; any other
    sequence cell by cell (bools as 1/0, ints, .17g floats, anything
    else as ``str``, wrapped in quotes with each ``"`` doubled when it
    holds a comma, quote, CR or LF).  Every column is checked
    before the file is opened, so a non-finite float raises
    ``NonFiniteCoefficient`` and writes nothing.  Rows go out in blocks of
    :data:`CSV_BLOCK_ROWS`, each formatted as one record array of
    fixed-width cell texts and separators, whose NUL padding is dropped
    in one pass (by a length mask where a text cell holds NUL bytes).
    """
    cols = [_column(c) for c in columns]
    if len(cols) != len(header) or len({len(c) for c in cols}) > 1:
        raise ValueError("write_csv: expected one column per header name, "
                         "all of one length")
    n_rows = len(cols[0]) if cols else 0
    int_texts = [_int_texts(c) for c in cols]
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, n_rows, CSV_BLOCK_ROWS):
                fh.write(_block_bytes([_cells(c[start:start + CSV_BLOCK_ROWS], t)
                                       for c, t in zip(cols, int_texts)]))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# manifests


def _default_timestamp() -> str:
    env = os.environ.get(TIMESTAMP_ENV)
    if env:
        return env
    return datetime.now(timezone.utc).isoformat()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, parameters: dict, inputs=()) -> dict:
    """Run manifest: the command, its parameters, the tool version, the
    timestamp and the sha256 of each input file."""
    return {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "timestamp": _default_timestamp(),
        "input_hashes": [f"sha256:{file_digest(p)}" for p in inputs],
    }


def write_report(path: Path, payload: dict, manifest: dict) -> None:
    """JSON artifact with the manifest embedded."""
    doc = dict(payload)
    doc["manifest"] = manifest
    try:
        Path(path).write_text(stable_json_dumps(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_manifest_sidecar(path: Path, manifest: dict) -> None:
    """Companion manifest for CSV artifacts."""
    side = Path(str(path) + ".manifest.json")
    try:
        side.write_text(
            stable_json_dumps(manifest) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoFailure(f"cannot write {side}: {exc}") from exc
