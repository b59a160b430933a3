"""Deterministic CSV and JSON emission for the command line tools.

A table is a mapping from column name to a list of cells, each a Python
float, str or None. CSV writes None as an empty cell and any other cell with
str, which for a float is repr (the shortest round-trip form); JSON writes a
list of row objects with None as null. Rerunning a command with identical
inputs therefore produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["OutputSpec", "write_columns", "write_json_object"]

_FORMATS = ("csv", "json")


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


def _dump_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_columns(spec: OutputSpec, columns: dict[str, list],
                  trailer_comments: list[str] | None = None) -> None:
    """Write equal-length columns as CSV (with optional trailing # comment
    lines) or as a JSON array of row objects.

    JSON output ignores trailer_comments; JSON metadata lives in sidecar
    files instead.
    """
    names = list(columns)
    rows = zip(*columns.values(), strict=True)
    if spec.format == "json":
        _dump_json(spec.path, [dict(zip(names, row)) for row in rows])
        return
    lines = [",".join(names)]
    lines.extend(",".join("" if v is None else str(v) for v in row) for row in rows)
    lines.extend(trailer_comments or ())
    spec.path.parent.mkdir(parents=True, exist_ok=True)
    spec.path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json_object(path: Path, mapping: dict) -> None:
    """Write one flat mapping as a JSON object (used for fit sidecars)."""
    _dump_json(Path(path), mapping)
