#!/usr/bin/env python3
"""Benchmark of boxnodes: three seeded workloads, end to end and layer by layer.

Run from the root of a checkout (no install needed; the package is imported
from ./src):

    python3 perfbench/run.py --workload node-finders --seed 1 --seconds 30 --trace 0

Workloads: node-finders, sweeps (public API calls) and cli (calls of
boxnodes.cli.main, each writing to its own directory), all in this process.
Each is a closed loop with one client: the next job starts when the previous
one has returned. The job list is fixed by the seed; the run repeats it, a
pass at a time, until --seconds have passed (at least five passes), after
one untimed warm-up job. Every output is checked against closed-form
references (oracle.py).

On the shared 2-vCPU host this was written on, the same code runs at two
speeds a factor of about two apart, switching every few seconds, and
memory-bound code slows for minutes at a time, whatever the process does.
A median of raw job times lands on either speed, so each job of the list is
timed by its fastest repeat in the run (its time on a quiet host), and the
end-to-end times are taken over the list: wall_s is their sum, job_p50_ms
their median, job_tail_ms the slowest job. The raw median is in the run
record. setup_s is the median of fresh-interpreter imports of boxnodes,
spread over the run.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (tracing.py), with the trace
overhead; its spans go to .perfbench_out/; the init.* metrics come from
`-X importtime` in fresh interpreters. The second-to-last line of stdout is
the run record, the last line the result:
{"correct", "attempted", "failed", "metrics"}.

`correct` is false when any output differs from its reference or a job left
no output to check. `failed` counts jobs that raised, returned non-zero, or
failed a check; verify returning 1 on a valid well is counted there.
"""

import os

# one BLAS/OpenMP thread per process, for the client and the import launches
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from oracle import Verdict  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_ROOT = ROOT / ".perfbench_tmp"
TMP_DIR = TMP_ROOT / f"run{os.getpid()}"  # runs sharing a checkout keep apart

WORKLOADS = ("node-finders", "sweeps", "cli")
SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 3
MIN_PASSES = 5
CHILD_TIMEOUT_S = 150

# per-layer metric -> the end-to-end metric it should move, and where
PREDICTIONS = [
    ["init.import_s, init.scipy_import_s", "setup_s", "all"],
    ["well.calls, well.scalar_calls_frac, well.self_ms", "wall_s, job_p50_ms",
     "node-finders"],
    ["well.points, well.ns_per_point", "wall_s", "sweeps"],
    ["numerics.bisect_calls, numerics.golden_calls, numerics.f_evals, numerics.self_ms",
     "wall_s", "node-finders (golden also sweeps)"],
    ["numerics.simpson_calls", "job_tail_ms", "cli (verify)"],
    ["nodes.repart_ms, nodes.minima_ms, nodes.track_ms", "job_p50_ms", "node-finders"],
    ["nodes.zero_times_ms, nodes.t_refine_yield", "job_tail_ms", "node-finders"],
    ["nodes.samples_no_node_frac (a workload property: must not move)", "failed", "node-finders"],
    ["nodes.repart_err_max, nodes.minima_err_max, nodes.zero_time_err_max", "failed",
     "node-finders"],
    ["analysis.sweep_ms, analysis.fit_ms, analysis.heatmap_ms, analysis.time_avg_ms",
     "wall_s", "sweeps"],
    ["analysis.node_pos_calls, analysis.extrema_calls", "wall_s", "sweeps"],
    ["analysis.amp_err_max", "failed", "sweeps"],
    ["output.rows, output.bytes, output.write_ms", "job_p50_ms", "cli"],
    ["cli.handler_ms", "job_p50_ms", "cli"],
    ["verify.ms, verify.checks_failed", "job_tail_ms, failed", "cli"],
    ["trace.overhead_frac", "-", "all"],
    ["expected: closed-form node engine", "wall_s down on node-finders; sweeps unchanged; "
     "cli unchanged but for verify", ""],
    ["expected: hoisted validation", "well.self_ms per scalar call down, "
     "well.ns_per_point on sweeps not up", ""],
    ["expected: scipy dropped", "setup_s down everywhere; "
     "analysis.fit_ms on sweeps may rise", ""],
]


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny job sizes, for the smoke test only")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def launch_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    """HEAD of the checkout's git directory, read from files; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def installed_version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


# ---- fresh interpreters -----------------------------------------------------


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def setup_seconds(env: dict) -> float:
    """Wall time from spawning a fresh interpreter to the return of
    `import boxnodes` in it."""
    code = "import boxnodes, time; print(repr(time.monotonic()))"
    start = time.monotonic()
    proc = run_child([sys.executable, "-c", code], env)
    if proc.returncode != 0:
        raise BenchError(f"import boxnodes failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_breakdown(env: dict, launches: int) -> tuple[float, float]:
    """Medians of the cumulative `-X importtime` seconds of boxnodes and of
    scipy.optimize (0 when it is not imported)."""
    totals, scipy = [], []
    for _ in range(launches):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import boxnodes"], env)
        if proc.returncode != 0:
            raise BenchError(f"import boxnodes failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative[m[3]] = int(m[2]) * 1e-6
        totals.append(cumulative.get("boxnodes", 0.0))
        scipy.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(totals), statistics.median(scipy)


# ---- the run ----------------------------------------------------------------


class Run:
    """State of one benchmark run: outcomes, latencies, verdict and tracer."""

    def __init__(self, workload: str, jobs: list) -> None:
        self.workload = workload
        self.jobs = jobs
        self.verdict = Verdict()
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.no_output = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.slot_latencies: list[list[float]] = [[] for _ in jobs]
        self.pass_s = {False: [], True: []}
        self.job_counter = 0

    def _fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {reason}")

    def _check(self, label: str, check, *args):
        before = len(self.verdict.mismatches)
        try:
            reason = check(*args, self.verdict)
        except Exception as exc:  # an unreadable output is a wrong output
            self.verdict.mismatch(f"{label}: output not checkable: {exc!r}")
            reason = None
        if len(self.verdict.mismatches) > before:
            return f"reference mismatch: {self.verdict.mismatches[before]}"
        return reason

    def run_job(self, job, traced: bool, timed: bool = True, slot=None) -> float:
        self.job_counter += 1
        self.tracer.job = self.job_counter
        if self.workload == "cli":
            latency, reason = self._run_cli_job(job)
        else:
            latency, reason = self._run_api_job(job)
        if timed:
            self.attempted += 1
            self.latencies.append(latency)
            if not traced:
                self.slot_latencies[slot].append(latency)
            if reason is not None:
                self._fail(job.label, reason)
        return latency

    def _run_api_job(self, job) -> tuple[float, str | None]:
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:
            latency = time.perf_counter() - start
            self.no_output += 1
            return latency, f"raised {exc!r}"
        latency = time.perf_counter() - start
        return latency, self._check(job.label, job.check, result)

    def _run_cli_job(self, job) -> tuple[float, str | None]:
        from boxnodes import cli

        job_dir = TMP_DIR / f"job{self.job_counter}"
        job_dir.mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(job_dir)  # outputs are named relative to the job's directory
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(job.argv)
            latency = time.perf_counter() - start
        except Exception as exc:
            latency = time.perf_counter() - start
            self.no_output += 1
            return latency, f"raised {exc!r}"
        finally:
            os.chdir(cwd)
        try:
            verify_failed = job.label == "verify" and code == 1
            if code != 0 and not verify_failed:
                self.no_output += 1
                err = stderr.getvalue().strip().splitlines()[-1:] or [""]
                return latency, f"returned {code}: {err[0]}"
            return latency, self._check(job.label, job.check, job_dir, stdout.getvalue(), code)
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)

    def run_pass(self, traced: bool) -> None:
        if traced:
            self.tracer.install()
        try:
            total = sum(self.run_job(job, traced, slot=i) for i, job in enumerate(self.jobs))
        finally:
            self.tracer.uninstall()
        self.pass_s[traced].append(total)


def build_jobs(workload: str, seed: int, tiny: bool):
    sys.path.insert(0, str(SRC))
    import boxnodes

    if Path(boxnodes.__file__).resolve().parent != SRC / "boxnodes":
        raise BenchError(f"imported boxnodes from {boxnodes.__file__}, not from {SRC}")
    if workload == "cli":
        import boxnodes.cli  # noqa: F401  (imported here, not inside a timed job)

        return workloads.cli(seed, tiny)
    return getattr(workloads, workload.replace("-", "_"))(boxnodes, seed, tiny)


def quiet_job_s(run: Run) -> list[float]:
    """Each job's fastest untraced repeat in the run, in list order."""
    return [min(samples) for samples in run.slot_latencies]


def end_to_end(run: Run, setup_s: list[float]) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    quiet = quiet_job_s(run)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(quiet), "s"),
        "job_p50_ms": (statistics.median(quiet) * 1e3, "ms"),
        "job_tail_ms": (max(quiet) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(run: Run, import_s: float, scipy_s: float) -> dict:
    tr = run.tracer
    n = len(run.pass_s[True])
    passes = n + len(run.pass_s[False])
    c, calls, self_ns = tr.counters, tr.calls, tr.self_ns
    v = run.verdict

    def med_ms(key: str, table=None) -> float:
        values = (table or tr.durations).get(key)
        return statistics.median(values) * 1e-6 if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    time_avg = tr.durations.get("analysis.time_avg_node_position", []) \
        + tr.durations.get("analysis.time_avg_density", [])
    return {
        "init.import_s": (import_s, "s"),
        "init.scipy_import_s": (scipy_s, "s"),
        "well.calls": (c["well_entries"] / n, "count"),
        "well.scalar_calls_frac": (ratio(c["well_scalar"], c["well_entries"]), "1"),
        "well.self_ms": (self_ns["well"] * 1e-6 / n, "ms"),
        "well.points": (c["well_points"] / n, "count"),
        "well.ns_per_point": (ratio(self_ns["well"], c["well_points"]), "ns"),
        "numerics.bisect_calls": (calls["numerics.bisect_root"] / n, "count"),
        "numerics.golden_calls": (calls["numerics.golden_min"] / n, "count"),
        "numerics.f_evals": (c["f_evals"] / n, "count"),
        "numerics.self_ms": (self_ns["numerics"] * 1e-6 / n, "ms"),
        "numerics.simpson_calls": (calls["numerics.composite_simpson"] / n, "count"),
        "nodes.repart_ms": (med_ms("nodes.find_real_part_zeros"), "ms"),
        "nodes.minima_ms": (med_ms("nodes.find_density_minima"), "ms"),
        "nodes.track_ms": (med_ms("nodes.track_trajectory", tr.self_durations), "ms"),
        "nodes.zero_times_ms": (med_ms("nodes.exact_zero_times"), "ms"),
        # with no refinement attempted, the zero times returned per pass
        "nodes.t_refine_yield": (c["zero_times_returned"] / max(c["t_refinements"], 1), "1"),
        "nodes.samples_no_node_frac": (ratio(v.counts["samples_no_node"], v.counts["samples"]),
                                       "1"),
        "nodes.repart_err_max": (v.errors.get("repart", 0.0), "a"),
        "nodes.minima_err_max": (v.errors.get("minimum", 0.0), "a"),
        "nodes.zero_time_err_max": (v.errors.get("zero_time", 0.0), "T"),
        "analysis.sweep_ms": (med_ms("analysis.amplitude_sweep"), "ms"),
        "analysis.fit_ms": (med_ms("analysis.fit_power_law"), "ms"),
        "analysis.heatmap_ms": (med_ms("analysis.heatmap"), "ms"),
        "analysis.time_avg_ms": (statistics.median(time_avg) * 1e-6 if time_avg else 0.0, "ms"),
        "analysis.node_pos_calls": (c["node_pos_from_analysis"] / n, "count"),
        "analysis.extrema_calls": (calls["analysis.oscillation_extrema"] / n, "count"),
        "analysis.amp_err_max": (v.errors.get("amplitude", 0.0), "a"),
        "output.rows": (c["output_rows"] / n, "count"),
        "output.bytes": (c["output_bytes"] / n, "count"),
        "output.write_ms": (self_ns["output"] * 1e-6 / n, "ms"),
        "cli.handler_ms": (med_ms("cli.main"), "ms"),
        "verify.ms": (med_ms("verify.run_verification"), "ms"),
        "verify.checks_failed": (v.counts["verify_fail_lines"] / passes, "count"),
        "trace.overhead_frac": (statistics.median(run.pass_s[True])
                                / statistics.median(run.pass_s[False]) - 1.0, "1"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boxnodes" / "__init__.py").is_file():
        print(f"error: no boxnodes package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    env = launch_env()
    setup_s: list[float] = []
    if args.trace:
        import_s, scipy_s = import_breakdown(env, IMPORTTIME_LAUNCHES)
    else:
        setup_seconds(env)  # unmeasured: fills the bytecode cache
    jobs = build_jobs(args.workload, args.seed, args.tiny)
    run = Run(args.workload, jobs)
    try:
        run.run_job(jobs[0], traced=False, timed=False)  # warm-up
        start = time.perf_counter()
        deadline = start + args.seconds
        min_untraced, min_traced = (1, 1) if args.trace else (MIN_PASSES, 0)
        while len(run.pass_s[False]) < min_untraced or len(run.pass_s[True]) < min_traced \
                or time.perf_counter() < deadline:
            run.run_pass(traced=False)
            if args.trace:
                run.run_pass(traced=True)
            # set-up launches spread over the run, between passes
            elapsed = (time.perf_counter() - start) / args.seconds
            if not args.trace and len(setup_s) < min(SETUP_LAUNCHES, elapsed * SETUP_LAUNCHES):
                setup_s.append(setup_seconds(env))
        while not args.trace and len(setup_s) < SETUP_LAUNCHES:
            setup_s.append(setup_seconds(env))
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()

    if args.trace:
        metrics = per_layer(run, import_s, scipy_s)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write_spans(spans_file)
    else:
        metrics = end_to_end(run, setup_s)
    quiet = quiet_job_s(run)
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": installed_version("scipy"),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "closed loop, one client process; fresh interpreters only to time the "
                "import, one at a time",
        "jobs_per_pass": len(jobs),
        "pass_s": {"untraced": run.pass_s[False], "traced": run.pass_s[True]},
        "job_timing": "each job's fastest untraced repeat; p50 and tail over the job list",
        "job_tail_ms": {"percentile": 100, "jobs": len(quiet),
                        "repeats_per_job": len(run.slot_latencies[0])},
        "quiet_job_ms": [[job.label, s * 1e3] for job, s in zip(jobs, quiet)],
        "raw_job_p50_ms": statistics.median(run.latencies) * 1e3,
        "setup_launches_s": setup_s,
        "failed_frac": {"value": run.failed / run.attempted, "unit": "1"},
        "failures": run.failures,
        "mismatches": run.verdict.mismatches[:10],
        "reference_skipped_instants": run.verdict.skipped,
        "reference_errors": run.verdict.errors,
        "predictions": PREDICTIONS,
    }
    if args.trace:
        record["layer_self_ms_per_pass"] = {
            layer: ns * 1e-6 / len(run.pass_s[True]) for layer, ns in run.tracer.self_ns.items()}
        record["spans"] = {"file": str(spans_file.relative_to(ROOT)),
                           "kept": len(run.tracer.spans), "dropped": run.tracer.spans_dropped}
    result = {
        "correct": not run.verdict.mismatches and run.no_output == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
