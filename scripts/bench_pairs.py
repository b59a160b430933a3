#!/usr/bin/env python3
"""Benchmark a change against a base commit in alternated pairs of runs.

    python3 scripts/bench_pairs.py --base REV --seed0 K --out BENCH_<n>.json

Run from a checkout whose tracked files, and whose src/ and perfbench/,
match its HEAD commit: the head side is that commit, as the working tree
this script lies in, the base side a `git archive` of REV written into a
temporary directory. For every workload of BENCHMARK.json the script runs
each side's own `perfbench/run.py --workload W --seed S --seconds SECONDS
--trace 0`, for BENCHMARK.json's run_seconds, in PAIRS = 10 pairs, so that
every record covers the same workloads at the same count. Pair i uses seed
K + i; the base runs first in the even pairs and the head in the odd ones,
so neither side always meets the host's state the other left behind. Both sides run without PYTHONDONTWRITEBYTECODE and
with PYTHONPYCACHEPREFIX set to one temporary cache, warmed by one import
per side, so that setup_s times an import from bytecode whatever the
caller's environment says.

The output file holds both commits, the host (platform, CPU count, numpy's
active CPU dispatch groups), the Python and numpy versions, the protocol,
`correct` and `failed` of every run, and per workload and end-to-end metric
of BENCHMARK.json: the base and head medians, the base quartiles, the pairs
in which the head read better, and the median's relative change against the
metric's bound. It then prints the record's block, the lines that
scripts/bench_trajectory.py prints for every committed record. Exit
status: 0 when every run is correct, no workload's median count of failed
operations is higher on the head than on the base and no median moves past
its bound in the worse direction, 1 otherwise, 2 on bad input (an unknown
option or revision, or a working tree that differs from HEAD, which the
record could not name). A quick look at one workload
is `perfbench/run.py --workload W`.
"""
import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_trajectory import record_block

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def bad_input(message: str) -> int:
    """Report an argument the benchmark cannot run with; exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of values, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, the comparison of the head's runs with the base's.

    runs holds one entry per run: workload, pair, side ("base" or "head"),
    seed, correct, failed, attempted and metrics (name -> value). metrics is
    BENCHMARK.json's end_to_end list: name, better ("lower" or "higher") and
    bound, a relative change. A pair counts as won when the head's value is
    better than the base's in the same pair; past_bound is true when the
    median moved in the worse direction by more than the bound.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload and run.get("metrics"):
                pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
        complete = [pair for _, pair in sorted(pairs.items()) if len(pair) == 2]
        table = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            base = [pair["base"][name] for pair in complete]
            head = [pair["head"][name] for pair in complete]
            if not base:
                continue
            base_q, head_q = quartiles(base), quartiles(head)
            change = head_q[1] / base_q[1] - 1.0 if base_q[1] else 0.0
            table[name] = {
                "base_median": base_q[1],
                "head_median": head_q[1],
                "base_quartiles": [base_q[0], base_q[2]],
                "head_quartiles": [head_q[0], head_q[2]],
                "pairs": len(complete),
                "head_won": sum(sign * (h - b) < 0.0 for b, h in zip(base, head)),
                "change": change,
                "bound": metric["bound"],
                "past_bound": sign * change > metric["bound"],
            }
        summary[workload] = table
    return summary


def verdict(runs: list[dict], summary: dict) -> tuple[int, list[str]]:
    """(exit status, reasons): 1 on a run that is not correct, on a workload
    whose head fails more operations than its base in the median, or on a
    median past its bound."""
    reasons = [f"{run['workload']} pair {run['pair']} {run['side']} (seed {run['seed']}): "
               f"not correct" + (f" ({run['error']})" if run.get("error") else "")
               for run in runs if not run["correct"]]
    for workload in dict.fromkeys(run["workload"] for run in runs):
        failed = {side: statistics.median([run["failed"] for run in runs
                                           if run["workload"] == workload
                                           and run["side"] == side
                                           and run["failed"] is not None] or [0])
                  for side in ("base", "head")}
        if failed["head"] > failed["base"]:
            reasons.append(f"{workload} failed: the head's median {failed['head']} is above "
                           f"the base's {failed['base']}")
    reasons += [f"{workload} {name}: the median moved {entry['change']:+.1%}, past its "
                f"bound of {entry['bound']:.0%}"
                for workload, table in summary.items() for name, entry in table.items()
                if entry["past_bound"]]
    return (1 if reasons else 0), reasons


def run_once(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One benchmark run on tree: correct, failed, attempted and metrics; a run
    that exits nonzero or prints no result is not correct, with its error."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0:
            raise ValueError
    except (IndexError, ValueError):
        error = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        return {"correct": False, "failed": None, "attempted": None, "metrics": None,
                "error": error}
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def host(env: dict) -> dict:
    """The platform, the CPU count and the numpy that runs the benchmark."""
    code = ("import json, numpy, numpy._core._multiarray_umath as m; "
            "print(json.dumps([numpy.__version__, "
            "[d for d in m.__cpu_dispatch__ if m.__cpu_features__.get(d)]]))")
    numpy_version, dispatch = json.loads(subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True,
        text=True).stdout)
    return {"platform": platform.platform(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "numpy_dispatch": dispatch}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the base commit (any git revision)")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--seed0", type=int, required=True,
                        help="the seed of pair 0; choose one not used while writing")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse's own exit 2 on a malformed argument
        return int(exc.code or 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        base_sha = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        return bad_input(f"--base {args.base!r} names no commit")
    if (git("status", "--porcelain", "--untracked-files=no")
            or git("status", "--porcelain", "--", "src", "perfbench")):
        return bad_input("the working tree differs from HEAD; commit the change first")
    head_sha = git("rev-parse", "HEAD")
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", base_sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the "data" filter where this Python has one, as 3.14 will by default
            tar.extractall(base_tree, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                         else {}))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
        trees = {"base": base_tree, "head": ROOT}
        for tree in trees.values():  # warm the bytecode cache of each side
            subprocess.run([sys.executable, "-c", "import boxnodes"], check=True,
                           env={**env, "PYTHONPATH": str(tree / "src")})
        runs = []
        for workload in workloads:
            for i in range(PAIRS):
                seed = args.seed0 + i
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    run = run_once(trees[side], workload, seed, seconds, env)
                    runs.append({"workload": workload, "pair": i, "side": side,
                                 "seed": seed, **run})
                    print(f"{workload} pair {i} {side}: correct={run['correct']} "
                          f"failed={run['failed']}", file=sys.stderr)
        machine = host(env)
    summary = summarize(runs, spec["end_to_end"])
    code, reasons = verdict(runs, summary)
    record = {
        "base": base_sha,
        "head": head_sha,
        "host": machine,
        "protocol": {
            "command": "perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0",
            "workloads": workloads, "pairs": PAIRS, "seconds": seconds,
            "seed0": args.seed0,
            "order": "base first in even pairs, head first in odd pairs",
            "environment": "PYTHONDONTWRITEBYTECODE unset; PYTHONPYCACHEPREFIX a "
                           "temporary cache warmed by one import per side",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        },
        "summary": summary,
        "verdict": {"exit": code, "reasons": reasons},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print("\n".join(record_block(args.out.name, record, spec["end_to_end"])))
    for reason in reasons:
        print(f"FAIL {reason}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
