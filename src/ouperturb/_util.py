"""Small deterministic I/O helpers: CSV writing, digests, atomic JSON.

A CSV is written from whole columns, not rows.  ``fmt`` is the one cell
contract; ``write_csv`` applies it per column type, so a float, integer or
bool array is formatted in one pass over its ``tolist()`` with the same text
``fmt`` gives each cell.  Rows are joined and written ``CSV_BLOCK_ROWS`` at a
time, so the text of a large table never exists all at once.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

CSV_BLOCK_ROWS = 256     # rows joined per write


def fmt(value) -> str:
    """Shortest round-trip text for a cell; stable across runs."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cells(column) -> list:
    """The text of each cell of one column, equal to ``fmt`` of each cell."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.bool_:
            return ["1" if v else "0" for v in column.tolist()]
        if column.dtype.kind == "f":
            return list(map(float.__repr__, column.tolist()))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
    return [fmt(v) for v in column]


def write_csv(path, header, columns):
    """Write equal-length columns atomically under ``header``; returns the path.

    Each column is a 1-D sequence.  Float, integer and bool arrays are
    formatted per type (``float.__repr__``, ``str``, ``1``/``0``); any other
    sequence, such as a list mixing ints and ``""``, goes through ``fmt`` per
    cell.  The name, the three positional arguments and the returned path
    are fixed: the benchmark's tracer wraps ``harness.write_csv(path, header,
    rows)`` by that signature and reads the size of the returned file.
    """
    n = len(columns[0]) if len(columns) else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"{path}: columns of unequal length "
                         f"{[len(c) for c in columns]}")
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            cells = [_cells(c[lo:lo + CSV_BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    os.replace(tmp, path)
    return path


def write_json(path, obj):
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
