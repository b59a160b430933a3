#!/usr/bin/env python3
"""The benchmark trajectory: every committed benchmark record as one table.

    python3 scripts/bench_trajectory.py

Reads every BENCH_<n>.json beside BENCHMARK.json, in the order of n, each
written by scripts/bench_pairs.py. A record compares its head commit with
its base commit, and two records compose only when the later one's base
runs the code the earlier one's head ran: the link from one record to the
next holds when the next record's base has the src/ and perfbench/ trees
(`git rev-parse REV:src`) of the previous record's head. The script names
every link and, for a broken one, the tree that differs. Within each run of
intact links it prints, per workload and end-to-end metric of
BENCHMARK.json, the product of the records' head to base median ratios,
then each record's change and the pairs its head won. Last comes one block
per record, the form CHANGES.md quotes; scripts/bench_pairs.py prints the
same block, from record_block, at the end of its run.

Exit status: 0, also when a link is broken; 2, before any output, when a
record cannot be read.
"""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "perfbench")


def trees(rev: str) -> tuple:
    """The hashes of rev's src/ and perfbench/ trees, None for a tree git
    cannot name (an unknown commit, say)."""
    hashes = []
    for tree in TREES:
        proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}:{tree}"],
                              cwd=ROOT, capture_output=True, text=True)
        hashes.append(proc.stdout.strip() if proc.returncode == 0 else None)
    return tuple(hashes)


def load_records(root: Path, metrics: list[dict]) -> list[tuple[str, dict]]:
    """(file name, record) of every BENCH_<n>.json in root, in the order of
    n; ValueError names the first one that cannot be read, or lacks a field
    that its block reads."""
    paths = sorted((p for p in root.glob("BENCH_*.json")
                    if re.fullmatch(r"BENCH_\d+\.json", p.name)), key=lambda p: int(p.name[6:-5]))
    records = []
    for path in paths:
        try:
            record = json.loads(path.read_text())
            record_block(path.name, record, metrics)
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path.name}: {type(exc).__name__}: {exc}") from None
        records.append((path.name, record))
    return records


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def record_block(name: str, record: dict, metrics: list[dict]) -> list[str]:
    """One record's lines: its commits, then per workload the medians base ->
    head of each end-to-end metric, with the base quartiles, the pairs the
    head won and the change of the median."""
    lines = [f"{name}: base {record['base'][:10]} -> head {record['head'][:10]}, "
             f"exit {record.get('verdict', {}).get('exit')}",
             "  medians base -> head [base quartiles] (pairs the head won, change)"]
    for workload, table in record["summary"].items():
        cells = []
        for metric in metrics:
            entry = table.get(metric["name"])
            if entry is None:
                continue
            q1, q3 = entry["base_quartiles"]
            cells.append(f"{metric['name']} {_fmt(entry['base_median'])} -> "
                         f"{_fmt(entry['head_median'])} {metric['unit']} "
                         f"[{_fmt(q1)}-{_fmt(q3)}] ({entry['head_won']} of {entry['pairs']}, "
                         f"{entry['change']:+.2%})")
        lines.append(f"  {workload}: " + ", ".join(cells))
    return lines


def links(records: list[tuple[str, dict]]) -> list[tuple[str, str, str | None, str]]:
    """(earlier file, later file, None when the link holds or else the reason
    it breaks, the trees named) for each pair of consecutive records."""
    out = []
    for (prev_name, prev), (name, record) in zip(records, records[1:]):
        head, base = trees(prev["head"]), trees(record["base"])
        named = ", ".join(f"{tree} {(h or '?')[:10]}" for tree, h in zip(TREES, head))
        broken = [f"{tree} {(h or '?')[:10]} != {(b or '?')[:10]}"
                  for tree, h, b in zip(TREES, head, base) if h is None or h != b]
        out.append((prev_name, name, "; ".join(broken) or None, named))
    return out


def chains(records: list[tuple[str, dict]], link_list: list) -> list[list[tuple[str, dict]]]:
    """The records split at every broken link."""
    runs = [records[:1]]
    for record, (_, _, broken, _) in zip(records[1:], link_list):
        if broken:
            runs.append([])
        runs[-1].append(record)
    return [run for run in runs if run]


def chain_lines(chain: list[tuple[str, dict]], metrics: list[dict]) -> list[str]:
    """Per workload and metric of a chain of records, the chained ratio of
    head to base medians and each record's change and won pairs."""
    lines = [f"chain {chain[0][0]} .. {chain[-1][0]} ({len(chain)} records): "
             "chained head/base median (change), then per record change (pairs won)"]
    workloads = dict.fromkeys(w for _, record in chain for w in record["summary"])
    for workload in workloads:
        for metric in metrics:
            entries = [record["summary"].get(workload, {}).get(metric["name"])
                       for _, record in chain]
            entries = [e for e in entries if e is not None]
            if not entries:
                continue
            ratio = math.prod(e["head_median"] / e["base_median"] if e["base_median"] else 1.0
                              for e in entries)
            steps = ", ".join(f"{e['change']:+.2%} ({e['head_won']}/{e['pairs']})"
                              for e in entries)
            lines.append(f"  {workload:<12} {metric['name']:<12} {ratio:.3f} "
                         f"({ratio - 1.0:+.2%}): {steps}")
    return lines


def main() -> int:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        records = load_records(ROOT, metrics)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    link_list = links(records)
    print(f"benchmark trajectory: {len(records)} records")
    for prev_name, name, broken, named in link_list:
        print(f"link {prev_name} -> {name}: "
              + (f"BROKEN, base trees differ from the previous head's: {broken}"
                 if broken else f"intact ({named})"))
    for chain in chains(records, link_list):
        print("\n".join(chain_lines(chain, metrics)))
    for name, record in records:
        print("\n".join(record_block(name, record, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
