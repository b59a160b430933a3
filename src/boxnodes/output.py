"""Deterministic CSV and JSON emission for the command line tools.

A table is a mapping from column name to its cells: either a list of Python
floats, strs and Nones, or a 1-D float64 ndarray. CSV writes None as an empty
cell and any other cell with str, which for a float is repr (the shortest
round-trip form); JSON writes a list of row objects with None as null, and
assembles its text directly, byte for byte what json.dump(rows, indent=2)
writes. A float-array column is formatted one distinct value (bit pattern)
at a time, so a column that repeats few values costs few formatting calls.
Rerunning a command with identical inputs therefore produces byte-identical
files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["OutputSpec", "write_columns", "write_json_object"]

_FORMATS = ("csv", "json")

# what json.dump calls on a str, and on any cell that is no float or None
_encode = json.JSONEncoder().encode


@dataclass(frozen=True)
class OutputSpec:
    """Where and how to write: a path plus 'csv' or 'json'."""

    path: Path
    format: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", Path(self.path))
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.format!r}")

    @classmethod
    def from_cli(cls, path: str, fmt: str | None) -> "OutputSpec":
        """Build a spec, inferring the format from the suffix when not given."""
        p = Path(path)
        if fmt is None:
            fmt = "json" if p.suffix.lower() == ".json" else "csv"
        return cls(path=p, format=fmt)


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


def write_columns(spec: OutputSpec, columns: dict[str, list | np.ndarray],
                  trailer_comments: list[str] | None = None) -> None:
    """Write equal-length columns as CSV (with optional trailing # comment
    lines) or as a JSON array of row objects.

    A column is a list of float, str or None cells, or a 1-D float64 array.
    Unequal columns raise ValueError before any file is written. JSON output
    ignores trailer_comments; JSON metadata lives in sidecar files instead.
    """
    names = list(columns)
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns must have equal lengths, got {lengths}")
    if spec.format == "json":
        _write_text(spec.path, _json_rows(names, [_json_cells(c) for c in columns.values()]))
        return
    cells = [_csv_cells(col) for col in columns.values()]
    lines = [",".join(names), *map(",".join, zip(*cells)), *(trailer_comments or ())]
    _write_text(spec.path, "\n".join(lines) + "\n")


def write_json_object(path: Path, mapping: dict) -> None:
    """Write one flat mapping as a JSON object (used for fit sidecars)."""
    _write_text(Path(path), json.dumps(mapping, indent=2) + "\n")
