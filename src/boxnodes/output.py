"""Deterministic CSV and JSON emission for the command line tools.

The output path alone picks the format: JSON when its suffix is .json in any
case, CSV otherwise. A table is a mapping from column name to its cells:
either a 1-D float64 ndarray, whose NaN cells hold no value, or a list of
strs. A float column is formatted one distinct value (bit pattern) at a
time, so a column that repeats few values costs few formatting calls: CSV
writes repr (the shortest round-trip form) and NaN as an empty cell; JSON
writes a list of row objects with NaN as null, and assembles its text
directly, byte for byte what json.dump(rows, indent=2) writes with None in
place of each NaN. Metadata such as a power-law fit goes into a trailing
"# name k=v ..." comment line of the CSV, or into a JSON sidecar
<stem>.name.json. Rerunning a command with identical inputs therefore
produces byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["write_columns", "write_json_object"]

# what json.dump calls on a str
_encode = json.JSONEncoder().encode


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _format_distinct(col: np.ndarray, fmt, missing: str) -> list[str]:
    """fmt of every cell of a float array, called once per distinct value,
    and missing for every NaN cell.

    Values are keyed by bit pattern, which keeps -0.0 apart from 0.0 and
    groups NaNs, where comparing floats would merge the one and split the
    other.
    """
    if col.ndim != 1 or col.dtype != np.float64:
        raise ValueError(f"an array column must be 1-D float64, got {col.ndim}-D {col.dtype}")
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    tokens = np.array([missing if math.isnan(x) else fmt(x)
                       for x in keys.view(np.float64).tolist()], dtype=object)
    return tokens[inverse].tolist()


def _json_float(x: float) -> str:
    """A float other than NaN as json.dump writes it."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "Infinity" if x > 0 else "-Infinity"


def _cells(col, fmt, missing: str, text) -> list[str]:
    """The cells of a column: a float array's by fmt, with missing for NaN,
    a list of strs' by text."""
    if isinstance(col, np.ndarray):
        return _format_distinct(col, fmt, missing)
    return list(map(text, col))


def _json_rows(names: list[str], cells: list[list[str]]) -> str:
    """The text json.dump(rows, indent=2) writes for these formatted columns."""
    row = "  {\n" + ",\n".join(f"    {_encode(name).replace('%', '%%')}: %s"
                               for name in names) + "\n  }"
    rows = [row % values for values in zip(*cells)]
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def write_columns(path: str | Path, columns: dict[str, np.ndarray | list[str]],
                  metadata: dict[str, dict] | None = None) -> None:
    """Write equal-length columns as a JSON array of row objects when the
    suffix of path is .json in any case, and as CSV otherwise.

    A column is a 1-D float64 array, written with NaN as an empty CSV cell
    or a JSON null, or a list of strs. Each metadata entry name: fields
    becomes the trailing CSV line "# name k=v ..." with v by repr, or, for
    JSON, the object fields in the sidecar <stem>.name.json. Unequal columns
    raise ValueError before any file is written.
    """
    path = Path(path)
    names = list(columns)
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns must have equal lengths, got {lengths}")
    metadata = metadata or {}
    if path.suffix.lower() == ".json":
        _write_text(path, _json_rows(names, [_cells(c, _json_float, "null", _encode)
                                       for c in columns.values()]))
        for name, fields in metadata.items():
            write_json_object(path.with_suffix(f".{name}.json"), fields)
        return
    cells = [_cells(col, repr, "", str) for col in columns.values()]
    trailer = [" ".join([f"# {name}", *(f"{k}={v!r}" for k, v in fields.items())])
               for name, fields in metadata.items()]
    _write_text(path, "\n".join([",".join(names), *map(",".join, zip(*cells)), *trailer]) + "\n")


def write_json_object(path: Path, mapping: dict) -> None:
    """Write one flat mapping as a JSON object (used for metadata sidecars)."""
    _write_text(Path(path), json.dumps(mapping, indent=2) + "\n")
