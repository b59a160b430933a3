#!/usr/bin/env python3
"""Compare the outputs of two commits: byte-identical, except where declared.

    python3 scripts/gate_compare.py BASE HEAD GATE_DIFF.json BASE_GATE_DIFF.json

BASE and HEAD are directories holding the same outputs, one written by the
base commit and one by the change. GATE_DIFF.json is the change's
declaration. With {} the gate is diff -r: both trees hold the same files,
byte for byte. A change that means to move bytes names each file it moves,
by its path in the tree, with one bound and the CHANGES.md line that
records it:

    {"minimum.json": {"abs": 1e-15, "changes": "<text from its CHANGES.md line>"},
     "verify.txt": {"ulps": 8, "changes": "<text from its CHANGES.md line>"}}

A declared file must differ, keep every byte outside its numbers (line
count, column names, empty cells, PASS/FAIL, check names), and move each
number by at most abs, or by at most ulps units in the last place of the
base value. BASE_GATE_DIFF.json is the base commit's declaration, {} when the
file is missing. A non-empty declaration equal to it fails, so a
declaration lasts one change. Exits 0 when the gate passes and 1 with the
reasons on stderr when it fails; a malformed declaration exits 2.
"""
import argparse
import json
import math
import re
import sys
from pathlib import Path

# one token per decimal number as Python and the output writers print them;
# nan and inf stay in the text around the numbers
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def load_declaration(path: Path) -> dict:
    """The declaration in path, each entry checked: a bound and a CHANGES.md line."""
    declared = json.loads(path.read_text())
    if not isinstance(declared, dict):
        raise ValueError(f"{path}: a declaration is a JSON object, got {declared!r}")
    for name, entry in declared.items():
        keys = set(entry) if isinstance(entry, dict) else set()
        if keys not in ({"abs", "changes"}, {"ulps", "changes"}):
            raise ValueError(f"{path}: {name} needs \"changes\" and one of \"abs\" or "
                             f"\"ulps\", got {entry!r}")
        bound = entry.get("abs", entry.get("ulps"))
        if not (isinstance(bound, (int, float)) and 0 < bound < math.inf):
            raise ValueError(f"{path}: {name} needs a positive finite bound, got {bound!r}")
        if not (isinstance(entry["changes"], str) and entry["changes"].strip()):
            raise ValueError(f"{path}: {name} must name its CHANGES.md line")
    return declared


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def declared_diff(base: str, head: str, entry: dict) -> tuple[list[str], str]:
    """(reasons the change breaks the entry, a summary of what moved)."""
    text_base = _NUMBER.sub("#", base).splitlines()
    text_head = _NUMBER.sub("#", head).splitlines()
    if len(text_base) != len(text_head):
        return [f"{len(text_base)} lines became {len(text_head)}"], ""
    for i, (old, new) in enumerate(zip(text_base, text_head)):
        if old != new:
            return [f"line {i + 1}: the text outside its numbers changed from "
                    f"{base.splitlines()[i]!r} to {head.splitlines()[i]!r}"], ""
    reasons, moved, worst_abs, worst_ulps = [], 0, 0.0, 0.0
    numbers = list(zip(_NUMBER.findall(base), _NUMBER.findall(head)))
    for old, new in numbers:
        if old == new:
            continue
        b, h = float(old), float(new)
        change = abs(h - b)
        moved += 1
        worst_abs = max(worst_abs, change)
        worst_ulps = max(worst_ulps, change / math.ulp(b))
        limit = entry["abs"] if "abs" in entry else entry["ulps"] * math.ulp(b)
        if not change <= limit:
            reasons.append(f"{old} became {new}, a change of {change:.3g} over the bound")
    summary = (f"{moved} of {len(numbers)} numbers moved, by at most {worst_abs:.3g} "
               f"({worst_ulps:.3g} ulps)")
    return reasons, summary


def compare(base_dir: Path, head_dir: Path, declared: dict,
            base_declared: dict) -> tuple[list[str], list[str]]:
    """(failures, summaries of the declared files) of the gate on two trees."""
    failures, summaries = [], []
    if declared and declared == base_declared:
        failures.append("GATE_DIFF.json is non-empty and equal to the base commit's copy; "
                        "a declaration lasts one change, so reset it to {}")
    base, head = _files(base_dir), _files(head_dir)
    for name in sorted(base.keys() | head.keys() | declared.keys()):
        if name not in base or name not in head:
            where = "head" if name in head else "base" if name in base else "neither tree"
            failures.append(f"{name}: only in {where}")
        elif name not in declared:
            if base[name] != head[name]:
                failures.append(f"{name}: differs and is not declared")
        elif base[name] == head[name]:
            failures.append(f"{name}: declared but byte-identical, a stale declaration")
        else:
            reasons, summary = declared_diff(base[name].decode(), head[name].decode(),
                                             declared[name])
            failures += [f"{name}: {reason}" for reason in reasons]
            if summary:
                summaries.append(f"{name}: {summary}")
    return failures, summaries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="outputs of the base commit")
    parser.add_argument("head", type=Path, help="outputs of the change")
    parser.add_argument("declaration", type=Path, help="the change's GATE_DIFF.json")
    parser.add_argument("base_declaration", type=Path,
                        help="the base commit's GATE_DIFF.json ({} when missing)")
    args = parser.parse_args(argv)
    try:
        declared = load_declaration(args.declaration)
        base_declared = (load_declaration(args.base_declaration)
                         if args.base_declaration.exists() else {})
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures, summaries = compare(args.base, args.head, declared, base_declared)
    for line in summaries:
        print(f"declared {line}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
