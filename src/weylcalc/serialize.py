"""Bit-stable JSON/CSV serialization and run manifests.

All floats are rendered with 17 significant digits and all JSON keys are
sorted, so identical runs produce byte-identical artifacts.  CSV tables
are passed as columns: float and integer arrays are formatted as whole
columns (an exact ``+0.0`` is written as ``0`` without the formatter,
``-0.0`` as ``-0``) and written in blocks of rows.  Every report embeds
(JSON) or accompanies (CSV) its :class:`RunManifest`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IoFailure, MalformedSpec
from .operators import CompositeOperator, ConvolutionOperator, WeylOperator
from .series import TaylorSeries

TIMESTAMP_ENV = "WEYLCALC_TIMESTAMP"
WORKDIR_ENV = "WEYLCALC_WORKDIR"


# ---------------------------------------------------------------------------
# stable JSON


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return f"{x:.17g}"


def stable_json_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [stable_json_dumps(v) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        items = [
            f'"{k}": {stable_json_dumps(obj[k])}'
            for k in sorted(obj, key=str)
        ]
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# series / operators


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _pair_to_complex(pair, what: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
        )
    ):
        raise MalformedSpec(f"{what}: expected [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])


def series_to_dict(s: TaylorSeries) -> dict:
    return {
        "label": s.label,
        "coeffs": [complex_pair(c) for c in s.coeffs],
        "valid_order": len(s),
    }


def series_from_dict(d: dict) -> TaylorSeries:
    if not isinstance(d, dict) or "coeffs" not in d:
        raise MalformedSpec("series: expected an object with a 'coeffs' field")
    coeffs = [_pair_to_complex(p, "series.coeffs") for p in d["coeffs"]]
    if not coeffs:
        raise MalformedSpec("series.coeffs must be non-empty")
    valid = d.get("valid_order", len(coeffs))
    if (
        not isinstance(valid, int)
        or isinstance(valid, bool)
        or not 1 <= valid <= len(coeffs)
    ):
        raise MalformedSpec(f"series.valid_order out of range: {valid!r}")
    return TaylorSeries(
        np.array(coeffs[:valid], dtype=np.complex128), str(d.get("label", ""))
    )


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
    if not isinstance(doc["d"], list) or not doc["d"]:
        raise MalformedSpec("operator.d must be a non-empty list of [re, im]")
    d = [_pair_to_complex(p, "operator.d") for p in doc["d"]]
    a = (
        _pair_to_complex(doc["a"], "operator.a")
        if "a" in doc
        else complex(0.0)
    )
    m = ConvolutionOperator(np.array(d, dtype=np.complex128))  # ZeroOperator here
    t = WeylOperator(m, a)
    if "L" in doc:
        if not isinstance(doc["L"], list) or not doc["L"]:
            raise MalformedSpec("operator.L must be a non-empty list of [re, im]")
        l = [_pair_to_complex(p, "operator.L") for p in doc["L"]]
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
    return str(v)


def _column(values):
    """A float or integer array, flat and checked finite, kept for
    formatting block by block; any other column formatted cell by cell."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        values = values.ravel()
        if values.dtype.kind == "f":
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise ValueError(
                    f"non-finite value {float(bad[0])} cannot be serialized"
                )
        return values
    return [_cell(v) for v in values]


def _block_cells(part) -> list:
    """Text cells of one block of a column from :func:`_column`."""
    if not isinstance(part, np.ndarray):
        return part
    if part.dtype.kind != "f":
        return [str(v) for v in part.tolist()]
    # most cells of a banded matrix are +0.0, whose f"{x:.17g}" is "0";
    # -0.0 goes through the formatter to keep its sign
    cells = ["0"] * part.size
    idx = np.flatnonzero((part != 0) | np.signbit(part))
    for i, x in zip(idx.tolist(), part[idx].tolist()):
        cells[i] = f"{x:.17g}"
    return cells


def write_csv(path: Path, header: list, columns) -> None:
    """CSV of equal-length columns, one per header name.

    Arrays are read flattened in C order.  A float array is written as
    ``f"{x:.17g}"`` of each value, an exact ``+0.0`` as ``0`` without
    the formatter; an integer array as ``str`` of each value; any other
    sequence cell by cell (bools as 1/0, ints, .17g floats, anything
    else as ``str``).  Every column is checked
    before the file is opened, so a non-finite float raises
    ``ValueError`` and writes nothing.  Rows go out in blocks of
    :data:`CSV_BLOCK_ROWS`.
    """
    cols = [_column(c) for c in columns]
    if len(cols) != len(header) or len({len(c) for c in cols}) > 1:
        raise ValueError("write_csv: expected one column per header name, "
                         "all of one length")
    n_rows = len(cols[0]) if cols else 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, n_rows, CSV_BLOCK_ROWS):
                block = [_block_cells(c[start:start + CSV_BLOCK_ROWS]) for c in cols]
                fh.write("".join(",".join(row) + "\n" for row in zip(*block)))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    tool_version: str = __version__
    timestamp: str = ""
    input_hashes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            "input_hashes": list(self.input_hashes),
        }


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


def build_manifest(command: str, parameters: dict, inputs=()) -> RunManifest:
    hashes = [f"sha256:{file_digest(p)}" for p in inputs]
    return RunManifest(
        command=command,
        parameters=parameters,
        timestamp=_default_timestamp(),
        input_hashes=hashes,
    )


def write_report(path: Path, payload: dict, manifest: RunManifest) -> None:
    """JSON artifact with the manifest embedded."""
    doc = dict(payload)
    doc["manifest"] = manifest.to_dict()
    try:
        Path(path).write_text(stable_json_dumps(doc) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_manifest_sidecar(path: Path, manifest: RunManifest) -> None:
    """Companion manifest for CSV artifacts."""
    side = Path(str(path) + ".manifest.json")
    try:
        side.write_text(
            stable_json_dumps(manifest.to_dict()) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoFailure(f"cannot write {side}: {exc}") from exc
