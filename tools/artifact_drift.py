"""How far the values of two sets of artifacts moved.

Usage, from the root of a source checkout::

    python3 tools/artifact_digests.py --seeds 0 --keep DIR_A   # one checkout
    python3 tools/artifact_digests.py --seeds 0 --keep DIR_B   # the other
    python3 tools/artifact_drift.py DIR_A DIR_B

Every file under either directory is matched by its relative path.  A
JSON artifact is compared leaf by leaf, a CSV artifact cell by cell in
the columns of one header; a field is a JSON path with its list indices
dropped (``fits[].residual_norm``) or a CSV column (``:residual``).  For
each artifact and field one line gives the largest relative change
|a - b| / max(|a|, |b|) of its numbers, an ``[re, im]`` pair of floats
taken as one complex number, with how many of them changed; text that
differs (a non-finite CSV cell included) is counted apart.  Keys,
columns and files present on one side only are listed after them, ``-``
for DIR_A only and ``+`` for DIR_B only.  The last line sums up: the
largest change of all and the number of fields that moved.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from collections import defaultdict
from pathlib import Path


def _number(value):
    """The value as a complex number, or None for anything else."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
            and not all(isinstance(v, int) for v in value)):
        return complex(value[0], value[1])
    return None


def _leaves(doc, path="", index=""):
    """(field, exact path, value) of every leaf of a JSON document; an
    ``[re, im]`` pair is one leaf."""
    if _number(doc) is not None or not isinstance(doc, (dict, list)):
        yield path, index, doc
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key,
                               f"{index}.{key}" if index else key)
    else:
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[]", f"{index}[{i}]")


def _csv_leaves(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    for i, row in enumerate(body):
        for name, cell in zip(header, row):
            try:
                value = float(cell) if math.isfinite(float(cell)) else cell
            except ValueError:
                value = cell
            yield f":{name}", f":{name}[{i}]", value


def _read(path: Path):
    """{exact path: (field, value)} of an artifact, None when it is
    neither JSON nor CSV."""
    if path.suffix == ".json":
        leaves = _leaves(json.loads(path.read_text(encoding="utf-8")))
    elif path.suffix == ".csv":
        leaves = _csv_leaves(path)
    else:
        return None
    return {index: (field, value) for field, index, value in leaves}


def _relative(a: complex, b: complex) -> float:
    top = max(abs(a), abs(b))
    return abs(a - b) / top if top else 0.0


def drift(dir_a: Path, dir_b: Path) -> list:
    """The report's lines, in the order described in the module docstring."""
    files_a = {p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*") if p.is_file()}
    moved, one_side = [], []
    worst = 0.0
    for name in sorted(files_a | files_b):
        if name not in files_b or name not in files_a:
            one_side.append(f"{'-' if name in files_a else '+'} {name}")
            continue
        a, b = _read(dir_a / name), _read(dir_b / name)
        if a is None or b is None:
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                moved.append(f"{name}  bytes differ")
            continue
        stats = defaultdict(lambda: [0.0, 0, 0, 0])  # max rel, numbers, changed, text
        for index in a.keys() & b.keys():
            field, va = a[index]
            vb = b[index][1]
            na, nb = _number(va), _number(vb)
            entry = stats[field]
            if na is not None and nb is not None:
                entry[1] += 1
                if na != nb:
                    entry[2] += 1
                    entry[0] = max(entry[0], _relative(na, nb))
            elif va != vb:
                entry[3] += 1
        for field, (rel, count, changed, text) in sorted(stats.items()):
            if changed or text:
                worst = max(worst, rel)
                line = f"{name}  {field}  max_rel={rel:.3g}  changed {changed} of {count}"
                moved.append(line + (f", text changed {text}" if text else ""))
        for sign, keys in (("-", a.keys() - b.keys()), ("+", b.keys() - a.keys())):
            for field in sorted({(a if sign == "-" else b)[k][0] for k in keys}):
                one_side.append(f"{sign} {name}  {field}")
    return moved + one_side + [
        f"largest relative change {worst:.3g}; {len(moved)} field(s) moved, "
        f"{len(one_side)} present on one side only"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for directory in (args.dir_a, args.dir_b):
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
    print("\n".join(drift(args.dir_a, args.dir_b)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
