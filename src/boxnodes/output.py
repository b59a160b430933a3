"""Deterministic CSV and JSON emission for the command line tools.

Floats are written with repr (shortest round-trip form), so rerunning a
command with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["OutputSpec", "write_rows", "write_json_object"]

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


def _clean(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (int,)):
        return int(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(spec: OutputSpec, fieldnames: list[str], rows: list[dict],
               trailer_comments: list[str] | None = None) -> None:
    """Write rows as CSV (with optional trailing # comment lines) or a JSON array.

    Absent values (None) become empty CSV cells or JSON nulls. JSON output
    ignores trailer_comments; JSON metadata lives in sidecar files instead.
    """
    cleaned = [{k: _clean(row.get(k)) for k in fieldnames} for row in rows]
    spec.path.parent.mkdir(parents=True, exist_ok=True)
    if spec.format == "csv":
        lines = [",".join(fieldnames)]
        for row in cleaned:
            lines.append(",".join(_format_cell(row[k]) for k in fieldnames))
        if trailer_comments:
            lines.extend(trailer_comments)
        spec.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        with open(spec.path, "w", encoding="utf-8") as fh:
            json.dump(cleaned, fh, indent=2)
            fh.write("\n")


def write_json_object(path: Path, mapping: dict) -> None:
    """Write one flat mapping as a JSON object (used for fit sidecars)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cleaned = {k: _clean(v) for k, v in mapping.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cleaned, fh, indent=2)
        fh.write("\n")
