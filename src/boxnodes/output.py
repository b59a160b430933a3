"""Deterministic CSV and JSON emission for the command line tools.

The output path alone picks the format: JSON when its suffix is .json in any
case, CSV otherwise. A table is a mapping from column name to its cells:
either a list of Python floats, strs and Nones, or a 1-D float64 ndarray. CSV
writes None as an empty cell and any other cell with str, which for a float
is repr (the shortest round-trip form); JSON writes a list of row objects
with None as null, and assembles its text directly, byte for byte what
json.dump(rows, indent=2) writes. Metadata such as a power-law fit goes into
a trailing "# name k=v ..." comment line of the CSV, or into a JSON sidecar
<stem>.name.json. A float-array column is formatted one distinct value (bit
pattern) at a time, so a column that repeats few values costs few formatting
calls. Rerunning a command with identical inputs therefore produces
byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["write_columns", "write_json_object"]

# what json.dump calls on a str, and on any cell that is no float or None
_encode = json.JSONEncoder().encode


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _format_distinct(col: np.ndarray, fmt) -> list[str]:
    """fmt of every cell of a float array, called once per distinct value.

    Values are keyed by bit pattern, which keeps -0.0 apart from 0.0 and
    groups NaNs, where comparing floats would merge the one and split the
    other.
    """
    if col.ndim != 1 or col.dtype != np.float64:
        raise ValueError(f"an array column must be 1-D float64, got {col.ndim}-D {col.dtype}")
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    tokens = np.array(list(map(fmt, keys.view(np.float64).tolist())), dtype=object)
    return tokens[inverse].tolist()


def _csv_cells(col) -> list[str]:
    if isinstance(col, np.ndarray):
        return _format_distinct(col, repr)
    # only a column holding None needs the per-cell test
    return ["" if v is None else str(v) for v in col] if None in col else list(map(str, col))


def _json_float(x: float) -> str:
    """A float as json.dump writes it."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_cell(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, float):
        return _json_float(v)
    return _encode(v)


def _json_cells(col) -> list[str]:
    if isinstance(col, np.ndarray):
        return _format_distinct(col, _json_float)
    return list(map(_json_cell, col))


def _json_rows(names: list[str], cells: list[list[str]]) -> str:
    """The text json.dump(rows, indent=2) writes for these formatted columns."""
    row = "  {\n" + ",\n".join(f"    {_encode(name).replace('%', '%%')}: %s"
                               for name in names) + "\n  }"
    rows = [row % values for values in zip(*cells)]
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def write_columns(path: str | Path, columns: dict[str, list | np.ndarray],
                  metadata: dict[str, dict] | None = None) -> None:
    """Write equal-length columns as a JSON array of row objects when the
    suffix of path is .json in any case, and as CSV otherwise.

    A column is a list of float, str or None cells, or a 1-D float64 array.
    Each metadata entry name: fields becomes the trailing CSV line
    "# name k=v ..." with v by repr, or, for JSON, the object fields in the
    sidecar <stem>.name.json. Unequal columns raise ValueError before any
    file is written.
    """
    path = Path(path)
    names = list(columns)
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns must have equal lengths, got {lengths}")
    metadata = metadata or {}
    if path.suffix.lower() == ".json":
        _write_text(path, _json_rows(names, [_json_cells(c) for c in columns.values()]))
        for name, fields in metadata.items():
            write_json_object(path.with_suffix(f".{name}.json"), fields)
        return
    cells = [_csv_cells(col) for col in columns.values()]
    trailer = [" ".join([f"# {name}", *(f"{k}={v!r}" for k, v in fields.items())])
               for name, fields in metadata.items()]
    _write_text(path, "\n".join([",".join(names), *map(",".join, zip(*cells)), *trailer]) + "\n")


def write_json_object(path: Path, mapping: dict) -> None:
    """Write one flat mapping as a JSON object (used for metadata sidecars)."""
    _write_text(Path(path), json.dumps(mapping, indent=2) + "\n")
